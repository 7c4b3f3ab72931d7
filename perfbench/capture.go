package main

// Golden capture: perfbench -capture-golden [-workload name] writes the
// references for every input set from the program as it stands. Run it only
// when the benchmark is defined or extended, never to make a failing check
// pass.

import (
	"fmt"
	"os"
	"path/filepath"
)

func captureGolden(o options) error {
	work, err := os.MkdirTemp(mkdirs(o.root, ".bench_build", "runs"), "capture-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	o.work = work
	capture := map[string]func(options) error{
		"reproduce":  captureReproduce,
		"fleet-ops":  captureFleet,
		"coordd-mix": captureCoordd,
	}
	for _, name := range sortedKeys(capture) {
		if o.workload != "" && o.workload != name {
			continue
		}
		for in := int64(1); in <= goldenSeeds; in++ {
			o.seed = in
			logf("capturing %s input set %d", name, in)
			if err := capture[name](o); err != nil {
				return fmt.Errorf("%s input set %d: %w", name, in, err)
			}
		}
	}
	return nil
}

func captureReproduce(o options) error {
	bin := filepath.Join(o.work, "reproduce")
	if _, err := os.Stat(bin); err != nil {
		if _, err := goBuild(o.root, "cmd/reproduce", bin); err != nil {
			return err
		}
	}
	dir := filepath.Join(o.work, "artifacts")
	defer os.RemoveAll(dir)
	p, err := startProc(o.work, bin, "-out", dir, "-seed", fmt.Sprint(o.in()))
	if err != nil {
		return err
	}
	if _, _, err := p.wait(); err != nil {
		return err
	}
	m, err := hashDir(dir, indexFile)
	if err != nil {
		return err
	}
	path := goldenPath(o.root, "reproduce", o.in(), "sha256")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, m.format(), 0o644)
}

func captureFleet(o options) error {
	spec, err := fleetSpec(o.in())
	if err != nil {
		return err
	}
	dir := filepath.Join(o.work, fmt.Sprint("fleet-", o.in()))
	full, _, err := runFull(spec, dir, nil, nil, 0)
	if err != nil {
		return err
	}
	c, bad, err := runFleetCycle(spec, dir, full, nil, nil, 0)
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("resume is not bit-exact: %v", bad)
	}
	return writeGoldenJSON(goldenPath(o.root, "fleet-ops", o.in(), "json"),
		fleetGolden{Uninterrupted: c.full.record, Resumed: c.resumed.record})
}

// captureCoordd records the bodies of a serial pass, after checking that a
// second pass on the same daemon returns the same bodies.
func captureCoordd(o options) error {
	bin := filepath.Join(o.work, "coordd")
	if _, err := os.Stat(bin); err != nil {
		if _, err := goBuild(o.root, "cmd/coordd", bin); err != nil {
			return err
		}
	}
	c, err := bootCoordd(o, bin)
	if err != nil {
		return err
	}
	m := genMix(o.in())
	first, _, _, err := serialPass(c, m)
	if err == nil {
		var second map[string]string
		second, _, _, err = serialPass(c, m)
		if d := diffStrings(first, second); err == nil && len(d) > 0 {
			err = fmt.Errorf("serial passes disagree: %v", d)
		}
	}
	if _, stopErr := c.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	return writeGoldenJSON(goldenPath(o.root, "coordd-mix", o.in(), "json"), first)
}
