package main

// Layer probes: timed calls into single modules on production-sized inputs,
// made by the traced sweep. Each returns a per-call time; none attaches
// CoordSpec.StepHook, which would force the dense kernel and measure a
// different program.

import (
	"fmt"
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/charger"
	"coordcharge/internal/core"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/scenario"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// fig13fSpec is the hardest Fig 13 cell: 316 racks, (f) high discharge at
// the 2.3 MW limit, priority-aware. Step and PreRoll are the coordinated
// defaults, written out so the tick window is the spec's own.
func fig13fSpec(seed int64) scenario.CoordSpec {
	p1, p2, p3 := scenario.ProductionDistribution()
	return scenario.CoordSpec{
		NumP1: p1, NumP2: p2, NumP3: p3, Seed: seed,
		MSBLimit: 2.3 * units.Megawatt, Mode: dynamo.ModePriorityAware,
		LocalPolicy: charger.Variable{}, AvgDOD: 0.7,
		Step: 3 * time.Second, PreRoll: 2 * time.Minute,
	}
}

// tickWindow is the virtual-time span a coordinated run ticks over.
type tickWindow struct {
	start, end time.Duration
	step       time.Duration
}

// windowOf is the span a run of spec covered in ticks ticks: it starts
// PreRoll before the first peak, one tick per Step.
func windowOf(spec scenario.CoordSpec, ticks uint64) (tickWindow, error) {
	peak, err := scenario.FirstPeakOf(spec)
	if err != nil {
		return tickWindow{}, err
	}
	start := peak - spec.PreRoll
	return tickWindow{start: start, end: start + time.Duration(ticks-1)*spec.Step, step: spec.Step}, nil
}

// perCall times fn over calls invocations, repeated reps times, and returns
// the median time per call.
func perCall(reps, calls int, fn func(i int)) time.Duration {
	var per []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(start))/float64(calls))
	}
	return time.Duration(median(per))
}

// probeTrace times building the 316-rack generator and reading its frames
// over the window.
func probeTrace(seed int64, w tickWindow) (gen, frames time.Duration, err error) {
	var g *trace.Generator
	gen = perCall(5, 1, func(int) { g, err = trace.NewGenerator(trace.Spec{NumRacks: 316, Seed: seed}) })
	if err != nil {
		return 0, 0, err
	}
	var buf []units.Power
	frames = perCall(5, 1, func(int) { buf = trace.Frames(g, buf, w.start, w.end, w.step) })
	return gen, frames, nil
}

// probeBattery times the rack battery pack's per-tick charge step and its
// multi-tick analytic advance, over packs charging from the given depths
// of discharge at the variable charger's current.
func probeBattery(dods []float64, tick time.Duration) (step, advance time.Duration) {
	surface := battery.Fig5Surface()
	packs := make([]*battery.RackPack, len(dods))
	restart := func(i int) {
		d := units.Fraction(dods[i])
		packs[i].StartCharge(charger.Eq1(d), d)
	}
	for i := range packs {
		packs[i] = battery.NewRackPack(surface)
		restart(i)
	}
	n := len(packs)
	step = perCall(5, 200*n, func(i int) {
		p := packs[i%n]
		if !p.Charging() {
			restart(i % n)
		}
		p.Step(tick)
	})
	advance = perCall(5, 20*n, func(i int) {
		p := packs[i%n]
		if !p.Charging() {
			restart(i % n)
		}
		p.AdvanceTicks(tick, 20)
	})
	return step, advance
}

// probeControl times one priority-aware planning pass, one synchronous
// control-plane tick and one breaker-tree measurement over 316 racks.
func probeControl(dods []float64, step time.Duration) (plan, tick, tree time.Duration, err error) {
	p1, p2, p3 := scenario.ProductionDistribution()
	prio := func(i int) rack.Priority {
		switch {
		case i < p1:
			return rack.P1
		case i < p1+p2:
			return rack.P2
		}
		return rack.P3
	}
	n := p1 + p2 + p3
	infos := make([]core.RackInfo, n)
	for i := range infos {
		infos[i] = core.RackInfo{ID: i, Priority: prio(i), DOD: units.Fraction(dods[i%len(dods)])}
	}
	cfg := core.DefaultConfig()
	plan = perCall(5, 200, func(int) { core.PlanPriorityAware(200*units.Kilowatt, infos, cfg) })

	racks := make([]*rack.Rack, n)
	loads := make([]power.Load, n)
	for i := range racks {
		racks[i] = rack.New(fmt.Sprintf("r%d", i), prio(i), charger.Variable{}, battery.Fig5Surface())
		racks[i].SetDemand(6 * units.Kilowatt)
		loads[i] = racks[i]
	}
	msb, err := power.Build(power.Spec{Name: "msb"}, loads)
	if err != nil {
		return 0, 0, 0, err
	}
	h, err := dynamo.BuildHierarchy(msb, dynamo.ModePriorityAware, cfg, nil, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	outage := 45 * time.Second
	for _, r := range racks {
		r.LoseInput(0)
		r.Step(outage, outage)
		r.RestoreInput(outage)
	}
	ticks := 0
	tick = perCall(5, 100, func(int) {
		ticks++
		h.Tick(outage + time.Duration(ticks)*step)
	})
	tree = perCall(5, 2000, func(int) { msb.Power() })
	return plan, tick, tree, nil
}
