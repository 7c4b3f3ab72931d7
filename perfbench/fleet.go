package main

// The fleet-ops workload: the operator's run-and-recover path. One
// distributed-plane coordinated run of the grid peak-shave fleet with
// default control-plane faults, storm admission and guard, an obs sink and
// cadence checkpoints; then the same spec interrupted at half its span and
// resumed from that checkpoint to completion. Each run's flight digest,
// Summary() and obs counters are checked against the golden reference.
//
// The end-to-end run executes in a child process (perfbench -child
// fleet-ops), so it is set up, booted and measured like the other
// workloads' binaries, apart from the harness's own heap.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/obs"
	"coordcharge/internal/scenario"
)

// fleetSpec is the workload's spec at input seed in.
func fleetSpec(in int64) (scenario.CoordSpec, error) {
	spec, err := scenario.GridShaveSpec(in)
	if err != nil {
		return spec, err
	}
	spec.Distributed = true
	spec.Faults = faults.Default()
	// A lossy control plane needs the degraded-mode machinery armed, as
	// coordsim -run and coordd arm it.
	spec.StaleAfter = 10 * time.Second
	spec.Retry = dynamo.DefaultRetryPolicy()
	return spec, nil
}

// fleetRecord is what a run is checked on.
type fleetRecord struct {
	Digest   string           `json:"digest"`
	Summary  string           `json:"summary_sha256"`
	Counters map[string]int64 `json:"counters"`
}

type fleetGolden struct {
	Uninterrupted fleetRecord `json:"uninterrupted"`
	Resumed       fleetRecord `json:"resumed"`
}

func recordOf(res *scenario.CoordResult, sink *obs.Sink) fleetRecord {
	return fleetRecord{
		Digest:   sink.Flight.Digest(),
		Summary:  sha256Hex([]byte(res.Summary())),
		Counters: sink.Reg.Snapshot().Counters,
	}
}

// diffRecord lists how got differs from want, prefixing each line with what.
func diffRecord(what string, want, got fleetRecord) []string {
	w := map[string]string{"digest": want.Digest, "summary": want.Summary}
	g := map[string]string{"digest": got.Digest, "summary": got.Summary}
	for k, v := range want.Counters {
		w["counter "+k] = fmt.Sprint(v)
	}
	for k, v := range got.Counters {
		g["counter "+k] = fmt.Sprint(v)
	}
	var out []string
	for _, d := range diffStrings(w, g) {
		out = append(out, what+": "+d)
	}
	return out
}

// fleetLeg is one timed run and its outcome.
type fleetLeg struct {
	wall   time.Duration
	cpu    time.Duration // CPU time of this process during the run
	res    *scenario.CoordResult
	sink   *obs.Sink
	first  time.Duration // virtual time of the first tick polled
	last   time.Duration // virtual time of the last tick polled
	record fleetRecord
}

// runLeg runs spec once. sink may be nil. A non-zero interruptAt stops the
// run gracefully at the first tick at or past it, writing the final
// checkpoint. HardStop is used only to observe tick times; it never stops
// the run.
func runLeg(spec scenario.CoordSpec, sink *obs.Sink, interruptAt time.Duration) (*fleetLeg, error) {
	leg := &fleetLeg{sink: sink, first: -1}
	spec.Obs = sink
	spec.HardStop = func(now time.Duration) bool {
		if leg.first < 0 {
			leg.first = now
		}
		leg.last = now
		return false
	}
	if interruptAt > 0 {
		spec.Interrupt = func() bool { return leg.last >= interruptAt }
	}
	start, cpu := time.Now(), selfCPU()
	res, err := scenario.RunCoordinated(spec)
	leg.wall, leg.cpu = time.Since(start), selfCPU()-cpu
	if err != nil {
		return nil, err
	}
	leg.res = res
	if sink != nil {
		leg.record = recordOf(res, sink)
	}
	return leg, nil
}

// fleetCycle is an uninterrupted run and the interrupt-and-resume that
// continues from it.
type fleetCycle struct {
	full, interrupted, resumed *fleetLeg
	half                       time.Duration
	ckpt                       string // the interrupt's checkpoint
}

// runFull makes the uninterrupted run in dir and lists how it differs from
// want (nil skips the check).
func runFull(spec scenario.CoordSpec, dir string, want *fleetGolden, tr *tracer, parent int) (*fleetLeg, []string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	spec.Checkpoint = filepath.Join(dir, "full.ckpt")
	var leg *fleetLeg
	var err error
	tr.do("fleet.run", parent, func(int) { leg, err = runLeg(spec, obs.NewSink(0), 0) })
	if err != nil {
		return nil, nil, fmt.Errorf("uninterrupted run: %w", err)
	}
	if want == nil {
		return leg, nil, nil
	}
	return leg, diffRecord("uninterrupted", want.Uninterrupted, leg.record), nil
}

// runFleetCycle interrupts spec at half the tick span of the uninterrupted
// run full and resumes it, in dir. It lists how the resumed run differs
// from want (nil skips that check) and from full.
func runFleetCycle(spec scenario.CoordSpec, dir string, full *fleetLeg, want *fleetGolden, tr *tracer, parent int) (*fleetCycle, []string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	c := &fleetCycle{full: full, ckpt: filepath.Join(dir, "interrupted.ckpt")}
	c.half = full.first + (full.last-full.first)/2
	first := spec
	first.Checkpoint = c.ckpt
	var err error
	tr.do("fleet.interrupted", parent, func(int) { c.interrupted, err = runLeg(first, obs.NewSink(0), c.half) })
	if err != nil {
		return nil, nil, fmt.Errorf("interrupted run: %w", err)
	}
	if !c.interrupted.res.Interrupted {
		return nil, nil, fmt.Errorf("interrupted run was not interrupted at %v", c.half)
	}
	second := spec
	second.Checkpoint = c.ckpt
	second.Resume = c.ckpt
	tr.do("fleet.resume", parent, func(int) { c.resumed, err = runLeg(second, obs.NewSink(0), 0) })
	if err != nil {
		return nil, nil, fmt.Errorf("resumed run: %w", err)
	}
	var bad []string
	if want != nil {
		bad = diffRecord("resumed", want.Resumed, c.resumed.record)
	}
	// Resume must be bit-exact with the run it continues.
	if c.resumed.record.Digest != full.record.Digest {
		bad = append(bad, "resumed: flight digest differs from the uninterrupted run")
	}
	if c.resumed.record.Summary != full.record.Summary {
		bad = append(bad, "resumed: Summary() differs from the uninterrupted run")
	}
	return c, bad, nil
}

func fleetGoldenOf(root string, in int64) (*fleetGolden, error) {
	var g fleetGolden
	if err := readGoldenJSON(goldenPath(root, "fleet-ops", in, "json"), &g); err != nil {
		return nil, err
	}
	if g.Uninterrupted.Digest == "" || g.Resumed.Digest == "" || len(g.Uninterrupted.Counters) == 0 {
		return nil, fmt.Errorf("fleet-ops reference for input set %d is incomplete", in)
	}
	return &g, nil
}

// fleetReport is what the child process sends back.
type fleetReport struct {
	Walls     []float64 `json:"walls"`
	CPUs      []float64 `json:"cpus"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Problems  []string  `json:"problems"`
}

const (
	fleetReady        = "ready"
	fleetResultPrefix = "fleet-result "
)

// fleetChild is the body of the child process: it signals readiness once
// the specs and references are loaded, with the CPU time that took (and
// exits there when setupOnly). Then it makes timed uninterrupted runs until
// the budget is spent, and last the interrupt-and-resume cycle continuing
// from the final one, so that the cycle, which is about one and a half runs
// long while resume replays from t=0, takes no samples from cpu_s.
//
// Run i uses input set inputSeed(seed+i). The input sets differ by up to
// a quarter in the work a run takes, and a run makes about as many
// repetitions as there are sets, so the median covers them all whatever
// the seed; the seed picks the order.
func fleetChild(o options, setupOnly bool) error {
	type input struct {
		spec scenario.CoordSpec
		want *fleetGolden
	}
	inputs := make([]input, goldenSeeds)
	for k := range inputs {
		in := inputSeed(o.seed + int64(k))
		spec, err := fleetSpec(in)
		if err != nil {
			return err
		}
		want, err := fleetGoldenOf(o.root, in)
		if err != nil {
			return err
		}
		inputs[k] = input{spec, want}
	}
	fmt.Println(fleetReady, selfCPU().Seconds())
	if setupOnly {
		return nil
	}
	var rep fleetReport
	note := func(bad []string, err error) {
		rep.Attempted++
		if err != nil {
			bad = []string{err.Error()}
		}
		rep.Failed += min(len(bad), 1)
		rep.Problems = append(rep.Problems, bad...)
	}
	var last *fleetLeg
	var lastIn input
	repeat(o.budget(), func(i int) {
		in := inputs[i%len(inputs)]
		runtime.GC() // every run starts from the same heap
		full, bad, err := runFull(in.spec, filepath.Join(o.work, fmt.Sprintf("run-%d", i)), in.want, nil, 0)
		note(bad, err)
		if err == nil {
			rep.Walls = append(rep.Walls, full.wall.Seconds())
			rep.CPUs = append(rep.CPUs, full.cpu.Seconds())
			last, lastIn = full, in
		}
	})
	if last == nil {
		note(nil, fmt.Errorf("resumed: no uninterrupted run to continue from"))
	} else {
		_, bad, err := runFleetCycle(lastIn.spec, filepath.Join(o.work, "cycle"), last, lastIn.want, nil, 0)
		note(bad, err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(fleetResultPrefix + string(b))
	return nil
}

func runFleetOps(o options) (*outcome, error) {
	var setups []float64
	var p *proc
	for i := 0; i < setupReps; i++ {
		bin := filepath.Join(o.work, fmt.Sprintf("perfbench-%d", i))
		build, err := goBuild(o.root, "perfbench", bin)
		if err != nil {
			return nil, err
		}
		last := i == setupReps-1
		args := []string{"-child", "fleet-ops", "-root", o.root, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds)}
		if !last {
			args = append(args, "setup-only")
		}
		if p, err = startProc(o.work, bin, args...); err != nil {
			return nil, err
		}
		line, err := p.waitLine(fleetReady+" ", time.Minute)
		if err != nil {
			p.stop(time.Second)
			return nil, err
		}
		boot, err := strconv.ParseFloat(strings.TrimPrefix(line, fleetReady+" "), 64)
		if err != nil {
			p.stop(time.Second)
			return nil, fmt.Errorf("fleet-ops child: %q: %v", line, err)
		}
		setups = append(setups, build.Seconds()+boot)
		if !last {
			if _, _, err := p.wait(); err != nil {
				return nil, err
			}
		}
	}
	lines, _, err := p.wait()
	if err != nil {
		return nil, err
	}
	var rep fleetReport
	for _, l := range lines {
		if strings.HasPrefix(l, fleetResultPrefix) {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(l, fleetResultPrefix)), &rep); err != nil {
				return nil, err
			}
		}
	}
	if rep.Attempted == 0 {
		return nil, fmt.Errorf("fleet-ops child reported nothing")
	}
	out := newOutcome()
	out.attempted, out.failed, out.problems = rep.Attempted, rep.Failed, rep.Problems
	out.set("setup_s", median(setups), "s")
	logf("cpu_s samples: %v", rep.CPUs)
	out.set("cpu_s", median(rep.CPUs), "s")
	out.info["wall_s"] = median(rep.Walls)
	return out, nil
}

// runChild dispatches the -child modes.
func runChild(name string, o options, args []string) error {
	switch name {
	case "fleet-ops":
		work, err := os.MkdirTemp(mkdirs(o.root, ".bench_build", "runs"), "fleet-child-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(work)
		o.work = work
		return fleetChild(o, len(args) > 0 && args[0] == "setup-only")
	}
	return fmt.Errorf("unknown child mode %q", name)
}
