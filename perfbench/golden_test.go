package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestInputSeedCyclesThroughReferences(t *testing.T) {
	for seed, want := range map[int64]int64{1: 1, 8: 8, 9: 1, 0: 8, -1: 7, 17: 1} {
		if got := inputSeed(seed); got != want {
			t.Errorf("inputSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

func TestParseManifestRejectsCorruption(t *testing.T) {
	good := manifest{"a.csv": strings.Repeat("ab", 32), "b.txt": strings.Repeat("0f", 32)}
	m, err := parseManifest(good.format())
	if err != nil || len(diffStrings(good, m)) != 0 {
		t.Fatalf("round trip: %v %v", m, err)
	}
	for name, data := range map[string]string{
		"empty":         "",
		"short hash":    strings.Repeat("ab", 31) + "  a.csv\n",
		"not hex":       strings.Repeat("zz", 32) + "  a.csv\n",
		"no name":       strings.Repeat("ab", 32) + "  \n",
		"one space":     strings.Repeat("ab", 32) + " a.csv\n",
		"duplicate":     strings.Repeat("ab", 32) + "  a.csv\n" + strings.Repeat("cd", 32) + "  a.csv\n",
		"trailing junk": string(good.format()) + "garbage\n",
	} {
		if _, err := parseManifest([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Every committed reference parses, and a reference perturbed in one
// place no longer matches what it was captured from.
func TestCommittedReferencesDetectPerturbation(t *testing.T) {
	for in := int64(1); in <= goldenSeeds; in++ {
		want, err := reproduceGolden("..", in)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 95 {
			t.Errorf("input set %d: %d artifacts, want 95", in, len(want))
		}
		perturbed := manifest{}
		for k, v := range want {
			perturbed[k] = v
		}
		perturbed["fig13_table3.txt"] = flip(want["fig13_table3.txt"])
		if d := diffStrings(perturbed, want); len(d) != 1 || !strings.HasPrefix(d[0], "fig13_table3.txt") {
			t.Errorf("input set %d: perturbed manifest diff %v", in, d)
		}
		delete(perturbed, "fig13_table3.txt")
		if d := diffStrings(perturbed, want); len(d) != 1 {
			t.Errorf("input set %d: an artifact missing from the reference went unnoticed: %v", in, d)
		}

		fleet, err := fleetGoldenOf("..", in)
		if err != nil {
			t.Fatal(err)
		}
		bad := fleet.Uninterrupted
		bad.Digest = flip(bad.Digest)
		if d := diffRecord("uninterrupted", fleet.Uninterrupted, bad); len(d) != 1 || !strings.HasPrefix(d[0], "uninterrupted: digest") {
			t.Errorf("input set %d: perturbed digest: %v", in, d)
		}
		bad = fleet.Resumed
		bad.Counters = map[string]int64{}
		for k, v := range fleet.Resumed.Counters {
			bad.Counters[k] = v
		}
		bad.Counters["storm.admitted"]++
		if d := diffRecord("resumed", fleet.Resumed, bad); len(d) != 1 || !strings.HasPrefix(d[0], "resumed: counter storm.admitted") {
			t.Errorf("input set %d: perturbed counter: %v", in, d)
		}

		bodies, err := coorddGolden("..", in)
		if err != nil {
			t.Fatal(err)
		}
		m := genMix(in)
		for _, q := range append(append(m.advise, m.runs...), m.ingest...) {
			if _, ok := bodies[q.key]; !ok {
				t.Errorf("input set %d: no reference body for %s", in, q.key)
			}
		}
		q := &m.advise[0]
		bodies[q.key] = flip(bodies[q.key])
		if ok, why := check(q, http.StatusOK, []byte(`{"racks":30}`), bodies); ok || why == "" {
			t.Errorf("input set %d: a wrong advise body passed", in)
		}
	}
}

func TestCorruptReferenceFilesAreRefused(t *testing.T) {
	dir := t.TempDir()
	for _, w := range []string{"reproduce", "fleet-ops", "coordd-mix"} {
		if err := os.MkdirAll(filepath.Join(dir, "perfbench", "golden", w), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write := func(w, ext, data string) {
		if err := os.WriteFile(goldenPath(dir, w, 1, ext), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("reproduce", "sha256", "not a manifest\n")
	if _, err := reproduceGolden(dir, 1); err == nil {
		t.Error("corrupt manifest accepted")
	}
	write("fleet-ops", "json", `{"uninterrupted":{"digest":"x"},"resumed":{"digest":"x"}}`)
	if _, err := fleetGoldenOf(dir, 1); err == nil {
		t.Error("incomplete fleet reference accepted")
	}
	write("fleet-ops", "json", `{"uninterrupted":{},"resumed":{},"extra":1}`)
	if _, err := fleetGoldenOf(dir, 1); err == nil {
		t.Error("fleet reference with unknown fields accepted")
	}
	write("coordd-mix", "json", `{"advise/00":"x"}`)
	if _, err := coorddGolden(dir, 1); err == nil {
		t.Error("coordd reference with missing bodies accepted")
	}
}

func TestHashDirSkipsIndex(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{"a.txt": "A", indexFile: "clock"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := hashDir(dir, indexFile)
	if err != nil || len(m) != 1 || m["a.txt"] != sha256Hex([]byte("A")) {
		t.Fatalf("hashDir: %v %v", m, err)
	}
	if !bytes.HasSuffix(m.format(), []byte("  a.txt\n")) {
		t.Errorf("format: %q", m.format())
	}
}

// flip changes the first character of a hex string.
func flip(h string) string {
	if h == "" {
		return "0"
	}
	if h[0] == '0' {
		return "1" + h[1:]
	}
	return "0" + h[1:]
}
