package main

// The traced sweep (--trace 1). It records in-memory spans around the
// harness's own calls into each module's public functions and reports the
// per-layer metrics. Every per-layer metric belongs to one workload's
// layers, and the sweep measures all of them whichever workload is named,
// so every traced run reports the same metric set: the reproduce pipeline
// built in-process, the fig13f cell and the module probes, the fleet-ops
// cycle, and the coordd mix with its rate ladder. Its outputs are checked
// against the same golden references as the end-to-end runs. Spans are
// written to .bench_build/spans/ when the sweep ends.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"coordcharge/internal/ckpt"
	"coordcharge/internal/obs"
	"coordcharge/internal/report"
	"coordcharge/internal/scenario"
	"coordcharge/internal/svc"
	"coordcharge/internal/trace"
)

func runTraced(o options) (*outcome, error) {
	out := newOutcome()
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, time.Now().UnixNano()))
	root := tr.begin("perfbench.traced", 0)
	steps := []func(options, *outcome, *tracer, int) error{tracedReproduce, tracedKernel, tracedFleet, tracedCoordd}
	for _, step := range steps {
		if err := step(o, out, tr, root); err != nil {
			return nil, err
		}
	}
	tr.end(root)
	path := filepath.Join(mkdirs(o.root, ".bench_build", "spans"), tr.run+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	logf("spans written to %s", path)
	return out, nil
}

// tracedReproduce builds the pipeline in-process three times, untraced,
// traced and untraced again, checking each against the golden manifest.
// The traced build gives the layer spans; against the mean of the two
// untraced builds around it, it gives the tracing overhead.
func tracedReproduce(o options, out *outcome, tr *tracer, parent int) error {
	want, err := reproduceGolden(o.root, o.in())
	if err != nil {
		return err
	}
	build := func(t *tracer, name string) (time.Duration, error) {
		dir := filepath.Join(o.work, name)
		var err error
		wall := t.do("reproduce.pipeline", parent, func(id int) { err = runPipeline(t, id, dir, o.in()) })
		if err != nil {
			return 0, err
		}
		got, err := hashDir(dir)
		if err != nil {
			return 0, err
		}
		out.ops(len(want), diffStrings(want, got))
		return wall, os.RemoveAll(dir)
	}
	before, err := build(nil, "artifacts-untraced-1")
	if err != nil {
		return err
	}
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	traced, err := build(tr, "artifacts-traced")
	runtime.ReadMemStats(&memAfter)
	if err != nil {
		return err
	}
	after, err := build(nil, "artifacts-untraced-2")
	if err != nil {
		return err
	}

	for _, layer := range []string{"fig13_table3", "fig14", "fig15", "case2", "endurance", "advise316", "fig02", "rest"} {
		out.set("scenario."+layer+".s", tr.total("scenario."+layer).Seconds(), "s")
	}
	out.set("reliability.montecarlo.s", tr.total("reliability.montecarlo").Seconds(), "s")
	out.set("report.save.s", tr.total("report.save").Seconds(), "s")
	out.set("mem.alloc_mb", float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/(1<<20), "MB")
	out.set("bench.tracing_overhead_frac", 2*traced.Seconds()/(before+after).Seconds()-1, "frac")

	// par: the Fig 14 sweep on one worker, between two sweeps at the
	// pipeline's default.
	fig14 := func(name string) (charts []namedChart, wall time.Duration, err error) {
		wall = tr.do(name, parent, func(int) {
			var cs []*report.Chart
			cs, err = scenario.RunFig14(o.in())
			for i, c := range cs {
				charts = append(charts, namedChart{fmt.Sprintf("fig14%c", 'a'+i), c})
			}
		})
		return charts, wall, err
	}
	_, par1, err := fig14("par.fig14_default")
	if err != nil {
		return err
	}
	prev := scenario.SetExperimentWorkers(1)
	charts, serial, err := fig14("par.fig14_serial")
	scenario.SetExperimentWorkers(prev)
	if err != nil {
		return err
	}
	_, par2, err := fig14("par.fig14_default")
	if err != nil {
		return err
	}
	serialDir := filepath.Join(o.work, "fig14-serial")
	if err := os.MkdirAll(serialDir, 0o755); err != nil {
		return err
	}
	for _, c := range charts {
		if err := report.SaveChart(serialDir, c.name, c.chart); err != nil {
			return err
		}
	}
	gotSerial, err := hashDir(serialDir)
	if err != nil {
		return err
	}
	wantSerial := manifest{}
	for name := range gotSerial {
		wantSerial[name] = want[name]
	}
	out.ops(len(charts), diffStrings(wantSerial, gotSerial))
	out.set("par.speedup", 2*serial.Seconds()/(par1+par2).Seconds(), "x")
	return nil
}

// tracedKernel times the fig13f cell and the module probes on its inputs.
func tracedKernel(o options, out *outcome, tr *tracer, parent int) error {
	spec := fig13fSpec(o.in())
	var res *scenario.CoordResult
	var err error
	cell := tr.do("scenario.fig13f", parent, func(int) { res, err = scenario.RunCoordinated(spec) })
	if err != nil {
		return err
	}
	// The same call outside any span: a traced call must run the same
	// program, down to the kernel's tick accounting.
	plain, err := scenario.RunCoordinated(spec)
	if err != nil {
		return err
	}
	// The event kernel counts every tick the run covers, executed or
	// skipped, and must reach the same result.
	ev := spec
	ev.Kernel = scenario.KernelEvent
	er, err := scenario.RunCoordinated(ev)
	if err != nil {
		return err
	}
	ticks := er.KernelTicksExecuted + er.KernelTicksSkipped
	if ticks == 0 {
		return fmt.Errorf("fig13f: the event kernel counted no ticks")
	}
	var bad []string
	if plain.Summary() != res.Summary() ||
		plain.KernelTicksExecuted != res.KernelTicksExecuted || plain.KernelTicksSkipped != res.KernelTicksSkipped {
		bad = append(bad, "fig13f: the traced call differs from the untraced call")
	}
	if er.Summary() != res.Summary() {
		bad = append(bad, "fig13f: the event kernel's result differs from the traced call's")
	}
	out.ops(2, bad)
	w, err := windowOf(spec, ticks)
	if err != nil {
		return err
	}
	executed := res.KernelTicksExecuted
	if executed+res.KernelTicksSkipped == 0 {
		executed = ticks // the dense kernel executes every tick
	}
	out.set("scenario.fig13f.ms", ms(cell), "ms")
	out.set("scenario.ns_per_tick", float64(cell)/float64(ticks), "ns")
	out.set("scenario.ticks_executed", float64(executed), "count")
	out.set("scenario.ticks_skipped", float64(res.KernelTicksSkipped), "count")

	var gen, frames, step, advance, plan, tick, tree time.Duration
	tr.do("trace.probe", parent, func(int) { gen, frames, err = probeTrace(o.in(), w) })
	if err != nil {
		return err
	}
	tr.do("battery.probe", parent, func(int) { step, advance = probeBattery(res.DODs, spec.Step) })
	tr.do("control.probe", parent, func(int) { plan, tick, tree, err = probeControl(res.DODs, spec.Step) })
	if err != nil {
		return err
	}
	out.set("trace.generator.ms", ms(gen), "ms")
	out.set("trace.frames.ms", ms(frames), "ms")
	out.set("battery.step_charge.ns", float64(step), "ns")
	out.set("battery.advance_ticks.ns", float64(advance), "ns")
	out.set("core.plan_priority_aware.us", float64(plan)/1e3, "us")
	out.set("dynamo.sync_tick.us", float64(tick)/1e3, "us")
	out.set("power.tree.ns", float64(tree), "ns")
	return nil
}

// tracedFleet runs the fleet-ops spec in-process without an obs sink and
// then with one, interrupts and resumes it, and measures its checkpoint.
func tracedFleet(o options, out *outcome, tr *tracer, parent int) error {
	spec, err := fleetSpec(o.in())
	if err != nil {
		return err
	}
	want, err := fleetGoldenOf(o.root, o.in())
	if err != nil {
		return err
	}
	dir := mkdirs(o.work, "fleet")
	nilSpec := spec
	nilSpec.Checkpoint = filepath.Join(dir, "nil-sink.ckpt")
	var nilLeg *fleetLeg
	tr.do("fleet.run_nil_sink", parent, func(int) { nilLeg, err = runLeg(nilSpec, nil, 0) })
	if err != nil {
		return err
	}
	full, bad, err := runFull(spec, dir, want, tr, parent)
	if err != nil {
		return err
	}
	out.ops(1, bad)
	if nilLeg.res.Summary() != full.res.Summary() {
		out.fail(1, "fleet-ops: the run without an obs sink differs from the run with one")
	} else {
		out.ops(1, nil)
	}
	c, bad, err := runFleetCycle(spec, dir, full, want, tr, parent)
	if err != nil {
		return err
	}
	out.ops(1, bad)

	data, err := os.ReadFile(c.ckpt)
	if err != nil {
		return err
	}
	var payload struct {
		EngineExecuted uint64 `json:"engine_executed"`
	}
	var decodeErr error
	decode := perCall(5, 1, func(int) { decodeErr = ckpt.Decode(data, &payload) })
	if decodeErr != nil {
		return decodeErr
	}
	var writeErr error
	write := perCall(5, 1, func(int) { writeErr = ckpt.WriteAtomic(filepath.Join(dir, "rewrite.ckpt"), data) })
	if writeErr != nil {
		return writeErr
	}

	counters := full.record.Counters
	for _, name := range []string{"dynamo.overrides", "dynamo.override_retries", "faults.reads_dropped",
		"faults.commands_dropped", "storm.admitted", "storm.waves", "guard.fires", "grid.shave_starts"} {
		out.set(name, float64(counters[name]), "count")
	}
	span := full.last - full.first
	remaining := float64(full.last-c.half) / float64(span)
	out.set("fleet.wall_s", full.wall.Seconds(), "s")
	out.set("fleet.resume_s", c.resumed.wall.Seconds(), "s")
	out.set("sim.events_executed", float64(payload.EngineExecuted), "count")
	out.set("scenario.ns_per_sim_event", float64(c.interrupted.wall)/float64(max(payload.EngineExecuted, 1)), "ns")
	out.set("obs.overhead_frac", full.wall.Seconds()/nilLeg.wall.Seconds()-1, "frac")
	out.set("obs.flight_events", float64(full.sink.Flight.Total()), "count")
	out.set("ckpt.bytes", float64(len(data)), "B")
	out.set("ckpt.write.ms", ms(write), "ms")
	out.set("ckpt.decode.ms", ms(decode), "ms")
	out.set("scenario.resume.replay_frac", c.resumed.wall.Seconds()/(full.wall.Seconds()*remaining), "frac")
	return nil
}

// tracedCoordd boots coordd once, checks the serial pass, measures the mix
// at the nominal rate and on the rate ladder, scrapes the service metrics,
// and times the request paths in-process, unloaded.
func tracedCoordd(o options, out *outcome, tr *tracer, parent int) error {
	want, err := coorddGolden(o.root, o.in())
	if err != nil {
		return err
	}
	m := genMix(o.in())
	bin := filepath.Join(o.work, "coordd")
	if _, err := goBuild(o.root, "cmd/coordd", bin); err != nil {
		return err
	}
	c, err := bootCoordd(o, bin)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			c.stop()
		}
	}()
	got, _, _, err := serialPass(c, m)
	if err != nil {
		return err
	}
	out.ops(len(got), diffStrings(want, got))

	var before, after struct {
		Tick float64 `json:"resident_tick_s"`
	}
	if err := c.getJSON("/healthz", &before); err != nil {
		return err
	}
	nominalStart := time.Now()
	var st loadStats
	var bad []string
	tr.do("mix.nominal", parent, func(int) { st, bad = phase(c, m, o.in(), mixNominalRate, 8*time.Second, want) })
	wall := time.Since(nominalStart)
	if err := c.getJSON("/healthz", &after); err != nil {
		return err
	}
	out.ops(st.Sent, bad)
	for _, k := range []string{"advise", "run", "ingest"} {
		out.setDist("mix."+k, st.Latency[k])
	}
	out.set("gen.late_ms.p50", st.Late.P50, "ms")
	out.set("gen.late_ms.max", st.Late.Max, "ms")
	out.set("svc.resident_ticks_per_s", (after.Tick-before.Tick)/residentStep.Seconds()/wall.Seconds(), "1/s")

	maxRate := 0.0
	tr.do("mix.ladder", parent, func(int) {
		for _, rate := range mixLadder {
			// Refusals end the search; only wrong answers are failures.
			st, bad := phase(c, m, o.in(), rate, 3*time.Second, want)
			var wrong []string
			for _, why := range bad {
				if !strings.Contains(why, refusedWith) {
					wrong = append(wrong, why)
				}
			}
			out.ops(st.Sent, wrong)
			if st.Failed > 0 || st.LateGrew || st.Latency["advise"].Tail > adviseTailLimitMS {
				break
			}
			maxRate = rate
		}
	})
	out.set("mix.max_rate_rps", maxRate, "1/s")

	var snap obs.Snapshot
	if err := c.getJSON("/metrics", &snap); err != nil {
		return err
	}
	stopped = true
	rss, err := c.stop()
	if err != nil {
		return err
	}
	out.set("mem.coordd_max_rss_mb", rss, "MB")
	wait := snap.Histograms["svc.queue_wait_ms"]
	tail, pct := histTail(wait)
	out.set("svc.queue_wait_ms.p50", wait.P50, "ms")
	out.set("svc.queue_wait_ms.tail", tail, "ms")
	out.tails["svc.queue_wait_ms.tail"] = tailNote{pct, int(wait.Count)}
	for _, name := range []string{"svc.admitted", "svc.shed", "svc.queue_timeouts", "svc.breaker_rejected"} {
		out.set(name, float64(snap.Counters[name]), "count")
	}
	return tracedServiceTime(m, out, tr, parent)
}

// histTail applies the tail rule to an obs histogram, which keeps only p50,
// p95 and p99: the highest of them with at least ten samples beyond it, and
// which percentile that is.
func histTail(h obs.HistSnapshot) (float64, float64) {
	switch n := float64(h.Count); {
	case n*0.01 >= minBeyond:
		return h.P99, 99
	case n*0.05 >= minBeyond:
		return h.P95, 95
	}
	return h.P50, 50
}

// tracedServiceTime times the coordd request paths in-process, one call at
// a time: request decoding, trace ingestion per frame, and the advise and
// run computations behind them.
func tracedServiceTime(m mixInputs, out *outcome, tr *tracer, parent int) error {
	var err error
	decode := perCall(5, 200, func(i int) {
		q := m.advise[i%len(m.advise)]
		if _, e := svc.DecodeAdvisorRequest(strings.NewReader(q.body)); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	out.set("svc.decode_validate.us", float64(decode)/1e3, "us")

	s, err := svc.New(svc.Options{})
	if err != nil {
		return err
	}
	h := s.Handler()
	ingest := perCall(3, len(m.ingest), func(i int) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/ingest", strings.NewReader(m.ingest[i].body)))
		if w.Code != http.StatusOK {
			err = fmt.Errorf("in-process ingest: %d %s", w.Code, w.Body)
		}
	})
	if err != nil {
		return err
	}
	out.set("svc.ingest_validate.us_per_frame", float64(ingest)/1e3/float64(m.frames), "us")

	var advise []float64
	tr.do("scenario.advise30", parent, func(id int) {
		for _, q := range m.advise {
			var req *svc.AdvisorRequest
			if req, err = svc.DecodeAdvisorRequest(strings.NewReader(q.body)); err != nil {
				return
			}
			spec, e := req.Spec()
			if e != nil {
				err = e
				return
			}
			advise = append(advise, ms(tr.do("scenario.Advise", id, func(int) { _, err = scenario.Advise(spec) })))
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	out.set("scenario.advise30.ms", median(advise), "ms")

	var runs []float64
	tr.do("scenario.run_on_trace", parent, func(id int) {
		for i, q := range m.runs {
			var spec scenario.CoordSpec
			if spec, err = runSpecOnTrace(q.body, m.ingest[i].body); err != nil {
				return
			}
			runs = append(runs, ms(tr.do("scenario.RunCoordinated", id, func(int) { _, err = scenario.RunCoordinated(spec) })))
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	out.set("scenario.run_on_trace.ms", median(runs), "ms")
	return nil
}

// runSpecOnTrace lowers a run request body onto a spec replaying the trace
// of an ingestion upload, as coordd does.
func runSpecOnTrace(body, upload string) (scenario.CoordSpec, error) {
	q, err := svc.DecodeRunRequest(strings.NewReader(body))
	if err != nil {
		return scenario.CoordSpec{}, err
	}
	spec, err := q.Spec()
	if err != nil {
		return spec, err
	}
	lines := strings.Split(strings.TrimSpace(upload), "\n")
	samples := make([][]float64, mixTraceRacks)
	for _, line := range lines[1:] {
		var f svc.TraceFrame
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			return spec, err
		}
		for r, w := range f.W {
			samples[r] = append(samples[r], w)
		}
	}
	m, err := trace.FromSamples(0, mixTraceStep, samples)
	if err != nil {
		return spec, err
	}
	spec.Trace = m
	return spec, nil
}
