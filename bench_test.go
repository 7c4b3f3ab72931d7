// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations of the design choices called out in DESIGN.md §5. Each
// benchmark runs the same code path as the corresponding cmd/ binary; custom
// metrics report the headline quantity of the artifact (spike magnitude,
// capping, SLA counts) alongside the usual ns/op.
package coordcharge

import (
	"testing"
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/charger"
	"coordcharge/internal/core"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/reliability"
	"coordcharge/internal/scenario"
	"coordcharge/internal/storm"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// BenchmarkFig2RegionOutage replays Case I: the regional utility sag whose
// battery recharge spiked a 61.6 MW region by ~9.3 MW (original charger).
func BenchmarkFig2RegionOutage(b *testing.B) {
	var spike float64
	for i := 0; i < b.N; i++ {
		c := scenario.Fig2Chart(16)
		pts := c.Series[0].Points
		base, peak := pts[0].Y, 0.0
		for _, p := range pts {
			if p.Y > peak {
				peak = p.Y
			}
		}
		spike = peak - base
	}
	b.ReportMetric(spike, "spike-MW")
}

// BenchmarkFig3ChargeProfile regenerates the full-discharge CC-CV charging
// sequence of one BBU at 5 A.
func BenchmarkFig3ChargeProfile(b *testing.B) {
	p := battery.DefaultParams()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		pts := battery.Profile(p, 5, 1, 10*time.Second)
		total = pts[len(pts)-1].T
	}
	b.ReportMetric(total.Minutes(), "charge-min")
}

// BenchmarkFig4PowerVsDOD regenerates the recharge-power-versus-time curves
// for four depths of discharge.
func BenchmarkFig4PowerVsDOD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = scenario.Fig4Chart()
	}
}

// BenchmarkFig5ChargeTimeGrid evaluates the empirical charge-time surface
// over the full (current × DOD) grid.
func BenchmarkFig5ChargeTimeGrid(b *testing.B) {
	s := battery.Fig5Surface()
	for i := 0; i < b.N; i++ {
		for c := units.Current(1); c <= 5; c += 0.1 {
			for d := units.Fraction(0); d <= 1; d += 0.01 {
				_ = s.ChargeTime(c, d)
			}
		}
	}
}

// BenchmarkFig6VariableCurrent evaluates Eq 1 across the DOD range.
func BenchmarkFig6VariableCurrent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for d := units.Fraction(0); d <= 1; d += 0.001 {
			_ = charger.Eq1(d)
		}
	}
}

// BenchmarkFig7RowValidation replays the 14-rack variable-charger production
// test (60 s RPP transition, ~20 % DOD).
func BenchmarkFig7RowValidation(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		c := scenario.Fig7Chart()
		spike := func(s int) float64 {
			base, peak := c.Series[s].Points[0].Y, 0.0
			for _, p := range c.Series[s].Points {
				if p.Y > peak {
					peak = p.Y
				}
			}
			return peak - base
		}
		reduction = 1 - spike(0)/spike(1)
	}
	b.ReportMetric(reduction*100, "reduction-%")
}

// BenchmarkFig9aAORMonteCarlo runs the Table I reliability Monte Carlo and
// sweeps AOR across charging times (1000 simulated years per iteration).
func BenchmarkFig9aAORMonteCarlo(b *testing.B) {
	var aor30 float64
	for i := 0; i < b.N; i++ {
		s, err := reliability.NewSimulator(reliability.TableI(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		pts := s.Sweep(1000, []time.Duration{30 * time.Minute, 60 * time.Minute, 90 * time.Minute})
		aor30 = float64(pts[0].AOR) * 100
	}
	b.ReportMetric(aor30, "AOR30min-%")
}

// BenchmarkTable2SLADerivation derives Table II (AOR per priority SLA).
func BenchmarkTable2SLADerivation(b *testing.B) {
	var p1Loss float64
	for i := 0; i < b.N; i++ {
		s, err := reliability.NewSimulator(reliability.TableI(), 1)
		if err != nil {
			b.Fatal(err)
		}
		rows := s.TableII(2000)
		p1Loss = rows[0].LossHoursPerYear
	}
	b.ReportMetric(p1Loss, "P1-loss-hr/yr")
}

// BenchmarkFig9bSLACurrent inverts the charge-time surface for the SLA
// current of every priority across the DOD range.
func BenchmarkFig9bSLACurrent(b *testing.B) {
	cfg := core.DefaultConfig()
	for i := 0; i < b.N; i++ {
		for _, p := range []rack.Priority{rack.P1, rack.P2, rack.P3} {
			for d := units.Fraction(0); d <= 1; d += 0.01 {
				_, _ = cfg.SLACurrent(p, d)
			}
		}
	}
}

// BenchmarkFig10PrototypeRow replays the 17-rack prototype row coordinated
// by a leaf controller (9 P1 at 2 A, 8 P2/P3 at 1 A).
func BenchmarkFig10PrototypeRow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = scenario.Fig10Chart()
	}
}

// BenchmarkFig11OverrideLatency replays the fine-grained single-rack
// override with the 20 s command-settling latency.
func BenchmarkFig11OverrideLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = scenario.Fig11Chart()
	}
}

// BenchmarkFig12TraceGen synthesizes the weekly 316-rack MSB trace and scans
// its aggregate envelope.
func BenchmarkFig12TraceGen(b *testing.B) {
	var peakMW float64
	for i := 0; i < b.N; i++ {
		gen, err := trace.NewGenerator(trace.Spec{NumRacks: 316, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		st := trace.AggregateStats(gen, 0, 7*24*time.Hour, 30*time.Minute)
		peakMW = st.Max.MW()
	}
	b.ReportMetric(peakMW, "peak-MW")
}

// fig13Run executes one Fig 13 cell at production scale.
func fig13Run(b *testing.B, mode dynamo.Mode, pol charger.Policy, limit units.Power, dod units.Fraction) *scenario.CoordResult {
	b.Helper()
	res, err := scenario.RunCoordinated(scenario.CoordSpec{
		NumP1: 89, NumP2: 142, NumP3: 85, Seed: 1,
		MSBLimit: limit, Mode: mode, LocalPolicy: pol, AvgDOD: dod,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig13CoordinatedCharging runs the hardest Fig 13 case — (f) high
// discharge at the 2.3 MW low limit — under all three algorithms.
func BenchmarkFig13CoordinatedCharging(b *testing.B) {
	b.ReportAllocs()
	var prioCapKW float64
	for i := 0; i < b.N; i++ {
		_ = fig13Run(b, dynamo.ModeNone, charger.Original{}, 2.3*units.Megawatt, 0.7)
		_ = fig13Run(b, dynamo.ModeNone, charger.Variable{}, 2.3*units.Megawatt, 0.7)
		prio := fig13Run(b, dynamo.ModePriorityAware, charger.Variable{}, 2.3*units.Megawatt, 0.7)
		prioCapKW = prio.Metrics.MaxCapping.KW()
	}
	b.ReportMetric(prioCapKW, "prio-cap-kW")
}

// BenchmarkTable3MaxCapping regenerates the full Table III: six cases under
// three algorithms (18 production-scale runs per iteration).
func BenchmarkTable3MaxCapping(b *testing.B) {
	b.ReportAllocs()
	var origWorstKW float64
	for i := 0; i < b.N; i++ {
		res, err := scenario.RunFig13(1)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Charts
		// Parse-free worst case: rerun the original charger's (f) cell.
		orig := fig13Run(b, dynamo.ModeNone, charger.Original{}, 2.3*units.Megawatt, 0.7)
		origWorstKW = orig.Metrics.MaxCapping.KW()
	}
	b.ReportMetric(origWorstKW, "orig-cap-kW")
}

// BenchmarkFig14SLAVsLimit sweeps the power limit for priority-aware versus
// global charging at medium discharge (one Fig 14 row per iteration).
func BenchmarkFig14SLAVsLimit(b *testing.B) {
	var paP1 float64
	for i := 0; i < b.N; i++ {
		pa, err := scenario.RunSweep(scenario.SweepSpec{
			Label: "bench", NumP1: 89, NumP2: 142, NumP3: 85,
			AvgDOD: 0.5, Mode: dynamo.ModePriorityAware, Seed: 1,
			Limits: []units.Power{2.6 * units.Megawatt, 2.4 * units.Megawatt, 2.2 * units.Megawatt},
		})
		if err != nil {
			b.Fatal(err)
		}
		_, err = scenario.RunSweep(scenario.SweepSpec{
			Label: "bench", NumP1: 89, NumP2: 142, NumP3: 85,
			AvgDOD: 0.5, Mode: dynamo.ModeGlobal, Seed: 1,
			Limits: []units.Power{2.6 * units.Megawatt, 2.4 * units.Megawatt, 2.2 * units.Megawatt},
		})
		if err != nil {
			b.Fatal(err)
		}
		paP1 = pa.Series[0].Points[1].Y // P1 SLAs met at 2.4 MW
	}
	b.ReportMetric(paP1, "PA-P1@2.4MW")
}

// BenchmarkFig15PriorityDistributions contrasts priority-aware and global
// charging when every rack is P1 (the paper's ~3× average improvement).
func BenchmarkFig15PriorityDistributions(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		limits := []units.Power{2.6 * units.Megawatt, 2.4 * units.Megawatt, 2.2 * units.Megawatt}
		pa, err := scenario.RunSweep(scenario.SweepSpec{
			Label: "bench", NumP1: 316, AvgDOD: 0.5,
			Mode: dynamo.ModePriorityAware, Seed: 1, Limits: limits,
		})
		if err != nil {
			b.Fatal(err)
		}
		gl, err := scenario.RunSweep(scenario.SweepSpec{
			Label: "bench", NumP1: 316, AvgDOD: 0.5,
			Mode: dynamo.ModeGlobal, Seed: 1, Limits: limits,
		})
		if err != nil {
			b.Fatal(err)
		}
		var paSum, glSum float64
		for k := range limits {
			paSum += pa.Series[0].Points[k].Y
			glSum += gl.Series[0].Points[k].Y
		}
		if glSum > 0 {
			ratio = paSum / glSum
		} else {
			ratio = paSum
		}
	}
	b.ReportMetric(ratio, "PA/global")
}

// BenchmarkAblationSortOrder compares Algorithm 1's grant order against the
// priority-only, DOD-only, and arrival orders on total SLAs met.
func BenchmarkAblationSortOrder(b *testing.B) {
	racks := make([]core.RackInfo, 316)
	for i := range racks {
		racks[i] = core.RackInfo{
			ID:       i,
			Priority: rack.Priority(1 + i%3),
			DOD:      units.Fraction(10+(i*13)%81) / 100,
		}
	}
	available := 316*380*units.Watt + 100*380*units.Watt
	var alg1Total float64
	for i := 0; i < b.N; i++ {
		for _, o := range []core.OrderPolicy{core.OrderPriorityThenDOD, core.OrderPriorityOnly, core.OrderDODOnly, core.OrderArrival} {
			cfg := core.DefaultConfig()
			cfg.Order = o
			met := core.SLAMetByPriority(core.PlanPriorityAware(available, racks, cfg))
			if o == core.OrderPriorityThenDOD {
				alg1Total = float64(met[rack.P1] + met[rack.P2] + met[rack.P3])
			}
		}
	}
	b.ReportMetric(alg1Total, "alg1-SLAs")
}

// BenchmarkAblationQuantisation compares the 1 A production override grid
// against a 0.1 A grid.
func BenchmarkAblationQuantisation(b *testing.B) {
	racks := make([]core.RackInfo, 316)
	for i := range racks {
		racks[i] = core.RackInfo{ID: i, Priority: rack.Priority(1 + i%3), DOD: units.Fraction(10+(i*13)%81) / 100}
	}
	available := 316*380*units.Watt + 100*380*units.Watt
	var gain float64
	for i := 0; i < b.N; i++ {
		coarse := core.DefaultConfig()
		fine := core.DefaultConfig()
		fine.Resolution = 0.1
		sum := func(m map[rack.Priority]int) float64 {
			return float64(m[rack.P1] + m[rack.P2] + m[rack.P3])
		}
		nc := sum(core.SLAMetByPriority(core.PlanPriorityAware(available, racks, coarse)))
		nf := sum(core.SLAMetByPriority(core.PlanPriorityAware(available, racks, fine)))
		gain = nf - nc
	}
	b.ReportMetric(gain, "fine-grid-gain")
}

// BenchmarkAblationThrottle compares reverse-order minimum throttling with
// proportional scaling on how many P1 racks each touches.
func BenchmarkAblationThrottle(b *testing.B) {
	cfg := core.DefaultConfig()
	var active []core.ActiveCharge
	for i := 0; i < 316; i++ {
		active = append(active, core.ActiveCharge{
			RackInfo: core.RackInfo{ID: i, Priority: rack.Priority(1 + i%3), DOD: 0.5},
			Current:  3,
		})
	}
	excess := 100 * 380 * units.Watt
	var reverseP1 float64
	for i := 0; i < b.N; i++ {
		ids := core.ThrottleToMinimum(excess, active, cfg)
		n := 0
		for _, id := range ids {
			if active[id].Priority == rack.P1 {
				n++
			}
		}
		reverseP1 = float64(n)
		_ = core.ThrottleProportional(excess, active, cfg)
	}
	b.ReportMetric(reverseP1, "P1-throttled")
}

// BenchmarkDistributedControlPlane runs a charging event on the
// message-passing control plane (30 racks; agents, leaf controllers, and an
// MSB controller over the simulated network) and reports the message volume.
func BenchmarkDistributedControlPlane(b *testing.B) {
	var overrides float64
	for i := 0; i < b.N; i++ {
		res, err := scenario.RunCoordinated(scenario.CoordSpec{
			NumP1: 10, NumP2: 10, NumP3: 10, Seed: 1,
			MSBLimit: 225 * units.Kilowatt, Mode: dynamo.ModePriorityAware,
			AvgDOD: 0.5, Distributed: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		overrides = float64(res.Metrics.OverridesIssued)
	}
	b.ReportMetric(overrides, "overrides")
}

// BenchmarkEnduranceRealizedAOR runs ten simulated years of Table I failure
// events through the live control plane.
func BenchmarkEnduranceRealizedAOR(b *testing.B) {
	var p1AOR float64
	for i := 0; i < b.N; i++ {
		res, err := scenario.RunEndurance(scenario.EnduranceSpec{Years: 10, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		p1AOR = float64(res.AOR[rack.P1]) * 100
	}
	b.ReportMetric(p1AOR, "P1-AOR-%")
}

// BenchmarkCapacityAdvisor sizes a 30-rack breaker (≈16 bisection probes).
func BenchmarkCapacityAdvisor(b *testing.B) {
	var savedKW float64
	for i := 0; i < b.N; i++ {
		adv, err := scenario.Advise(scenario.AdvisorSpec{
			NumP1: 10, NumP2: 10, NumP3: 10, AvgDOD: 0.5,
			Mode: dynamo.ModePriorityAware, Seed: 1,
			Resolution: 5 * units.Kilowatt,
		})
		if err != nil {
			b.Fatal(err)
		}
		savedKW = adv.SavedPower.KW()
	}
	b.ReportMetric(savedKW, "saved-kW")
}

// BenchmarkAblationCommandLatency measures why fast override settling
// matters: with a slow (60 s) command path, racks charge at their local
// variable-charger currents during the window before the plan lands, and the
// transient overload forces capping that instant coordination avoids.
func BenchmarkAblationCommandLatency(b *testing.B) {
	var capSlowKW float64
	for i := 0; i < b.N; i++ {
		run := func(latency time.Duration) units.Power {
			res, err := scenario.RunCoordinated(scenario.CoordSpec{
				NumP1: 89, NumP2: 142, NumP3: 85, Seed: 1,
				MSBLimit: 2.3 * units.Megawatt, Mode: dynamo.ModePriorityAware,
				AvgDOD: 0.7, CommandLatency: latency,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Metrics.MaxCapping
		}
		fast := run(0)
		slow := run(60 * time.Second)
		if fast > slow {
			b.Fatalf("fast control capped more (%v) than slow (%v)", fast, slow)
		}
		capSlowKW = slow.KW()
	}
	b.ReportMetric(capSlowKW, "slow-cap-kW")
}

// BenchmarkAblationPollCadence sweeps the distributed plane's polling period
// — the detection-latency knob the paper's 3-second telemetry implies.
func BenchmarkAblationPollCadence(b *testing.B) {
	var p1At30s float64
	for i := 0; i < b.N; i++ {
		for _, step := range []time.Duration{3 * time.Second, 30 * time.Second} {
			res, err := scenario.RunCoordinated(scenario.CoordSpec{
				NumP1: 10, NumP2: 10, NumP3: 10, Seed: 1,
				MSBLimit: 225 * units.Kilowatt, Mode: dynamo.ModePriorityAware,
				AvgDOD: 0.5, Distributed: true, Step: step,
			})
			if err != nil {
				b.Fatal(err)
			}
			if step == 30*time.Second {
				p1At30s = float64(res.SLAMet[rack.P1])
			}
		}
	}
	b.ReportMetric(p1At30s, "P1-SLAs@30s")
}

// BenchmarkStormRecovery replays the recharge-storm survival scenario
// (DESIGN.md §7): a site-wide 90 s outage at peak load drains 30 BBUs, and
// the admission-controlled, guard-protected recharge must clear the backlog
// under a breaker tightened to a 5%-over-for-30s trip rule. Reports the
// wall-clock of one full recovery and the time the last rack finished.
func BenchmarkStormRecovery(b *testing.B) {
	b.ReportAllocs()
	var recoveryMin float64
	for i := 0; i < b.N; i++ {
		sc := storm.Default()
		sc.Reserve = 0.01
		g := storm.DefaultGuardConfig()
		res, err := scenario.RunCoordinated(scenario.CoordSpec{
			NumP1: 10, NumP2: 10, NumP3: 10, Seed: 1,
			MSBLimit: 205 * units.Kilowatt, Mode: dynamo.ModePriorityAware,
			OutageLen:         90 * time.Second,
			TripRule:          &power.TripRule{Fraction: 0.05, Sustain: 30 * time.Second},
			MaxChargeDuration: 6 * time.Hour,
			Storm:             &sc, Guard: &g,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tripped) > 0 {
			b.Fatalf("breaker tripped during storm recovery: %v", res.Tripped)
		}
		if res.LastChargeDone == 0 {
			b.Fatal("recharges still outstanding at the horizon")
		}
		recoveryMin = res.LastChargeDone.Minutes()
	}
	b.ReportMetric(recoveryMin, "recovery-min")
}

// obsOverheadSpec is the storm-recovery scenario BenchmarkObsOverhead replays
// under each observability setting: every instrumented path (controllers,
// admission queue, guard, watchdogs) is on the hot loop.
func obsOverheadSpec(s *obs.Sink) scenario.CoordSpec {
	sc := storm.Default()
	sc.Reserve = 0.01
	g := storm.DefaultGuardConfig()
	return scenario.CoordSpec{
		NumP1: 10, NumP2: 10, NumP3: 10, Seed: 1,
		MSBLimit: 205 * units.Kilowatt, Mode: dynamo.ModePriorityAware,
		OutageLen:         90 * time.Second,
		TripRule:          &power.TripRule{Fraction: 0.05, Sustain: 30 * time.Second},
		MaxChargeDuration: 6 * time.Hour,
		Storm:             &sc, Guard: &g,
		Obs: s,
	}
}

// BenchmarkObsOverhead measures what the observability plane costs a storm
// run. The disabled case is the default for every library caller — nil sink,
// every metric and event call hitting the nil-receiver fast path — and must
// stay within noise of a build without instrumentation (<2 %). The enabled
// case carries the full registry and flight recorder and reports how many
// events one recovery journals.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scenario.RunCoordinated(obsOverheadSpec(nil)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		var events float64
		for i := 0; i < b.N; i++ {
			sink := obs.NewSink(obs.DefaultFlightCap)
			if _, err := scenario.RunCoordinated(obsOverheadSpec(sink)); err != nil {
				b.Fatal(err)
			}
			events = float64(sink.Flight.Total())
		}
		b.ReportMetric(events, "events")
	})
}

// BenchmarkAblationPostpone contrasts the postponed-charging extension with
// the stock priority-aware algorithm at a tight limit.
func BenchmarkAblationPostpone(b *testing.B) {
	var p1Gain float64
	for i := 0; i < b.N; i++ {
		pa := fig13Run(b, dynamo.ModePriorityAware, charger.Variable{}, 2.15*units.Megawatt, 0.5)
		pp := fig13Run(b, dynamo.ModePostpone, charger.Variable{}, 2.15*units.Megawatt, 0.5)
		p1Gain = float64(pp.SLAMet[rack.P1] - pa.SLAMet[rack.P1])
	}
	b.ReportMetric(p1Gain, "P1-gain")
}

// BenchmarkGridShave runs the grid signal plane's peak-shave experiment: the
// storm fleet rides out the outage, recovers, and then holds a 190 kW
// demand-response target by deliberately discharging batteries. The custom
// metrics report the energy the grid did not deliver at the peak and that the
// shave cost no recharge SLA.
func BenchmarkGridShave(b *testing.B) {
	b.ReportAllocs()
	var shavedWh, slaMisses float64
	for i := 0; i < b.N; i++ {
		spec, err := scenario.GridShaveSpec(1)
		if err != nil {
			b.Fatal(err)
		}
		res, err := scenario.RunCoordinated(spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Grid.ShaveStarts == 0 || res.Grid.ViolationTicks != 0 {
			b.Fatalf("shave did not hold: %+v", res.Grid)
		}
		shavedWh = res.Grid.ShavedEnergy.Wh()
		slaMisses = float64(res.Racks[rack.P1] + res.Racks[rack.P2] + res.Racks[rack.P3] -
			res.SLAMet[rack.P1] - res.SLAMet[rack.P2] - res.SLAMet[rack.P3])
	}
	b.ReportMetric(shavedWh, "shaved-Wh")
	b.ReportMetric(slaMisses, "SLA-misses")
}

// benchKernelPair runs the same scenario family under the dense loop and the
// event kernel as twin sub-benchmarks. Committing both measurements to the
// benchmark baseline locks the kernel's speedup ratio: a kernel regression
// blows the event arm's tolerance, a dense regression blows the other. Every
// iteration starts from an empty trace frame memo, so the event arm measures
// the kernel with cold frame synthesis, not frames an earlier run left behind.
func benchKernelPair(b *testing.B, run func(b *testing.B, kernel string) *scenario.CoordResult) {
	for _, kernel := range []string{scenario.KernelDense, scenario.KernelEvent} {
		b.Run(kernel, func(b *testing.B) {
			b.ReportAllocs()
			var skipped, executed float64
			for i := 0; i < b.N; i++ {
				trace.ResetFrameMemo()
				res := run(b, kernel)
				skipped = float64(res.KernelTicksSkipped)
				executed = float64(res.KernelTicksExecuted)
			}
			if kernel == scenario.KernelEvent {
				if skipped == 0 {
					b.Fatal("event kernel never engaged (zero skipped ticks)")
				}
				b.ReportMetric(skipped, "ticks-skipped")
				b.ReportMetric(executed, "ticks-executed")
			}
		})
	}
}

// BenchmarkFig13Kernel: the hardest Fig 13 cell — (f) high discharge at the
// 2.3 MW low limit under priority-aware charging — on both kernels.
func BenchmarkFig13Kernel(b *testing.B) {
	benchKernelPair(b, func(b *testing.B, kernel string) *scenario.CoordResult {
		res, err := scenario.RunCoordinated(scenario.CoordSpec{
			NumP1: 89, NumP2: 142, NumP3: 85, Seed: 1,
			MSBLimit: 2.3 * units.Megawatt, Mode: dynamo.ModePriorityAware,
			LocalPolicy: charger.Variable{}, AvgDOD: 0.7,
			Kernel: kernel,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	})
}

// BenchmarkTable3Kernel: the full priority-aware Table III row — six
// production-scale cells (two limits by three discharge depths) per iteration
// — on both kernels.
func BenchmarkTable3Kernel(b *testing.B) {
	benchKernelPair(b, func(b *testing.B, kernel string) *scenario.CoordResult {
		var last *scenario.CoordResult
		for _, limit := range []units.Power{2.8 * units.Megawatt, 2.3 * units.Megawatt} {
			for _, dod := range []units.Fraction{0.3, 0.5, 0.7} {
				res, err := scenario.RunCoordinated(scenario.CoordSpec{
					NumP1: 89, NumP2: 142, NumP3: 85, Seed: 1,
					MSBLimit: limit, Mode: dynamo.ModePriorityAware,
					LocalPolicy: charger.Variable{}, AvgDOD: dod,
					Kernel: kernel,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
		}
		return last
	})
}

// BenchmarkStormRecoveryKernel: the recharge-storm survival scenario
// (BenchmarkStormRecovery's exact spec) on both kernels. The storm is the
// kernel's adversarial case — admission waves and guard activity force dense
// spans — so this pair bounds the speedup from below.
func BenchmarkStormRecoveryKernel(b *testing.B) {
	benchKernelPair(b, func(b *testing.B, kernel string) *scenario.CoordResult {
		spec := obsOverheadSpec(nil)
		spec.Kernel = kernel
		res, err := scenario.RunCoordinated(spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tripped) > 0 {
			b.Fatalf("breaker tripped during storm recovery: %v", res.Tripped)
		}
		if res.LastChargeDone == 0 {
			b.Fatal("recharges still outstanding at the horizon")
		}
		return res
	})
}
