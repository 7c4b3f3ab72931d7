package main

// Golden references. Each workload's outputs are checked on every run
// against references captured from the program at the commit that defined
// the benchmark (perfbench -capture-golden). A mismatch counts as a failed
// operation and makes the run incorrect.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// goldenSeeds is how many input sets have references: a run at --seed n
// uses input set inputSeed(n) in 1..goldenSeeds.
const goldenSeeds = 8

func inputSeed(seed int64) int64 {
	return 1 + ((seed-1)%goldenSeeds+goldenSeeds)%goldenSeeds
}

func goldenPath(root, workload string, in int64, ext string) string {
	return filepath.Join(root, "perfbench", "golden", workload, fmt.Sprintf("seed-%d.%s", in, ext))
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// manifest maps a file name to the sha256 of its contents.
type manifest map[string]string

// hashDir hashes every regular file directly inside dir except skip.
func hashDir(dir string, skip ...string) (manifest, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	m := manifest{}
	for _, e := range ents {
		if !e.Type().IsRegular() || slices.Contains(skip, e.Name()) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		m[e.Name()] = sha256Hex(b)
	}
	return m, nil
}

// format renders m in sha256sum's "<hash>  <name>" layout, sorted by name.
func (m manifest) format() []byte {
	var b bytes.Buffer
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&b, "%s  %s\n", m[k], k)
	}
	return b.Bytes()
}

// parseManifest reads the format of manifest.format, rejecting anything
// that is not a well-formed, duplicate-free, non-empty manifest.
func parseManifest(data []byte) (manifest, error) {
	m := manifest{}
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		hash, name, ok := strings.Cut(line, "  ")
		if !ok || name == "" || len(hash) != sha256.Size*2 {
			return nil, fmt.Errorf("manifest line %d: malformed %q", i+1, line)
		}
		if _, err := hex.DecodeString(hash); err != nil {
			return nil, fmt.Errorf("manifest line %d: %v", i+1, err)
		}
		if _, dup := m[name]; dup {
			return nil, fmt.Errorf("manifest line %d: duplicate entry %q", i+1, name)
		}
		m[name] = hash
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("manifest is empty")
	}
	return m, nil
}

// diffStrings lists every key whose value differs between want and got,
// including keys present on one side only, sorted.
func diffStrings(want, got map[string]string) []string {
	var out []string
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			out = append(out, k+": missing")
		case g != w:
			out = append(out, fmt.Sprintf("%s: got %.12s, want %.12s", k, g, w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			out = append(out, k+": not in the reference")
		}
	}
	sort.Strings(out)
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readGoldenJSON decodes a JSON reference strictly.
func readGoldenJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading reference: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("reference %s: %w", path, err)
	}
	return nil
}

func writeGoldenJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
