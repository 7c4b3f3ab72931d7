package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"coordcharge/internal/charger"
	"coordcharge/internal/config"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/grid"
	"coordcharge/internal/obs"
	"coordcharge/internal/rack"
	"coordcharge/internal/scenario"
	"coordcharge/internal/storm"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// customSpec collects the -run flags.
type customSpec struct {
	mode, policy  string
	limitMW, dod  float64
	p1, p2, p3    int
	seed          int64
	tracePath     string
	analytics     bool
	faultsSpec    string
	watchdog      time.Duration
	storm         time.Duration
	admission     bool
	guard         bool
	grid          string
	gridCapCSV    string
	gridPriceCSV  string
	gridCarbonCSV string
	serve         string
	pace          float64
	ckpt          checkpointFlags
	kernel        string
}

// buildGridSpec lowers the -grid flag family onto a grid.Spec: the inline
// spec string plus any CSV-loaded signal series, attached before validation
// so thresholds referencing a file-loaded series parse.
func buildGridSpec(cs customSpec) (*grid.Spec, error) {
	loadCSV := func(path string) (*grid.Series, error) {
		if path == "" {
			return nil, nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		s, err := grid.ParseSeriesCSV(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		return s, nil
	}
	cap, err := loadCSV(cs.gridCapCSV)
	if err != nil {
		return nil, err
	}
	price, err := loadCSV(cs.gridPriceCSV)
	if err != nil {
		return nil, err
	}
	carbon, err := loadCSV(cs.gridCarbonCSV)
	if err != nil {
		return nil, err
	}
	return grid.ParseSpecWith(cs.grid, cap, price, carbon)
}

// armInterrupt wires SIGTERM (and Ctrl-C) to a graceful stop: the poll
// function is handed to the scenario layer as Spec.Interrupt, so the run
// writes a final checkpoint at the next tick boundary and returns a partial
// result instead of dying mid-write.
func armInterrupt() func() bool {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	interrupted := false
	return func() bool {
		if !interrupted {
			select {
			case <-stop:
				interrupted = true
			default:
			}
		}
		return interrupted
	}
}

// reportInterrupted prints the resume hint after a graceful stop.
func reportInterrupted(ckpt checkpointFlags) {
	if ckpt.path != "" {
		fmt.Fprintf(os.Stderr, "coordsim: interrupted; checkpoint written to %s — resume with -resume %s\n", ckpt.path, ckpt.path)
	} else {
		fmt.Fprintln(os.Stderr, "coordsim: interrupted; no -checkpoint configured, run state was not saved")
	}
}

func parseMode(s string) (dynamo.Mode, error) { return config.ParseMode(s) }

// runConfig executes every experiment section of a JSON experiment file.
func runConfig(path string, csv bool) {
	f, err := config.Load(path)
	check(err)
	if f.Coordinated != nil {
		spec, err := f.Coordinated.CoordSpec()
		check(err)
		res, err := scenario.RunCoordinated(spec)
		check(err)
		printCoordSummary(spec, res)
	}
	if f.Endurance != nil {
		spec, err := f.Endurance.EnduranceSpec()
		check(err)
		res, err := scenario.RunEndurance(spec)
		check(err)
		tbl := scenario.EnduranceTable(res)
		if csv {
			check(tbl.RenderCSV(os.Stdout))
		} else {
			check(tbl.Render(os.Stdout))
		}
	}
	if f.Advisor != nil {
		spec, err := f.Advisor.AdvisorSpec()
		check(err)
		adv, err := scenario.Advise(spec)
		check(err)
		tbl := scenario.AdviceTable(adv)
		if csv {
			check(tbl.RenderCSV(os.Stdout))
		} else {
			check(tbl.Render(os.Stdout))
		}
	}
}

// printCoordSummary prints the standard single-experiment report.
func printCoordSummary(spec scenario.CoordSpec, res *scenario.CoordResult) {
	fmt.Printf("experiment: %d racks (%d/%d/%d), %s mode, %s charger, %v limit\n",
		spec.NumP1+spec.NumP2+spec.NumP3, spec.NumP1, spec.NumP2, spec.NumP3,
		spec.Mode, spec.LocalPolicy.Name(), spec.MSBLimit)
	fmt.Printf("  transition length:        %v (realised avg DOD %v)\n",
		res.TransitionLength, res.AvgDOD)
	fmt.Printf("  peak MSB draw:            %v\n", res.PeakPower)
	fmt.Printf("  max server capping:       %v (%.0f%% of IT load)\n",
		res.Metrics.MaxCapping, float64(res.Metrics.MaxCappingFraction)*100)
	fmt.Printf("  SLAs met:                 P1 %d/%d, P2 %d/%d, P3 %d/%d\n",
		res.SLAMet[rack.P1], res.Racks[rack.P1],
		res.SLAMet[rack.P2], res.Racks[rack.P2],
		res.SLAMet[rack.P3], res.Racks[rack.P3])
	fmt.Printf("  last charge completed:    %v after the transition\n",
		res.LastChargeDone.Round(time.Second))
	if len(res.Tripped) > 0 {
		fmt.Printf("  BREAKERS TRIPPED:         %v\n", res.Tripped)
	}
	printStormSummary(spec, res)
	printGridSummary(spec, res)
	printFaultSummary(spec, res)
}

// printStormSummary reports the grid event's battery-side cost and what the
// storm machinery did. Silent when neither admission nor the guard is armed
// and the batteries carried the whole outage.
func printStormSummary(spec scenario.CoordSpec, res *scenario.CoordResult) {
	if res.UnservedEnergy > 0 || res.LoadDropEvents > 0 {
		fmt.Printf("  UNSERVED IT LOAD:         %v across %d rack load drops\n",
			res.UnservedEnergy, res.LoadDropEvents)
	}
	if spec.Storm != nil {
		fmt.Printf("  storm admission:          storms %d, paused %d, admitted %d in %d waves (max queue %d, promotions %d)\n",
			res.Storm.Storms, res.Storm.Enqueued, res.Storm.Admitted,
			res.Storm.Waves, res.Storm.MaxQueue, res.Storm.Promotions)
	}
	if spec.Guard != nil {
		fmt.Printf("  breaker guard:            fires %d, demoted %d, paused %d, IT capped %d (max cut %v), resumed %d\n",
			res.Guard.Fires, res.Guard.Demoted, res.Guard.Paused,
			res.Guard.ITCapped, res.Guard.MaxITCut, res.Guard.Resumed)
	}
}

// printGridSummary reports what the grid signal plane did: event and defer
// activity, cap enforcement, peak shaving, and the run's grid-facing
// integrals. Silent when the grid plane is off.
func printGridSummary(spec scenario.CoordSpec, res *scenario.CoordResult) {
	if spec.Grid == nil {
		return
	}
	g := res.Grid
	fmt.Printf("  grid signals:             cap changes %d, droop %d, DR windows %d, defer ticks %d (valve lifts %d)\n",
		g.CapChanges, g.DroopEvents, g.DRWindows, g.DeferTicks, g.DeferLifts)
	fmt.Printf("  grid cap enforcement:     demoted %d, paused %d, SLA repairs %d; violations %d ticks (max over %v)\n",
		g.CapDemotions, g.CapPauses, g.SLARepairs, g.ViolationTicks, g.MaxOverCap)
	if g.ShaveStarts > 0 {
		fmt.Printf("  grid peak shaving:        %d starts (%d rotations), %v carried by batteries\n",
			g.ShaveStarts, g.ShaveRotations, g.ShavedEnergy)
	}
	line := fmt.Sprintf("  grid draw:                peak %v, %v total", g.PeakDraw, g.GridEnergy)
	if spec.Grid.Price != nil {
		line += fmt.Sprintf(", $%.2f energy cost", g.EnergyCost)
	}
	if spec.Grid.Carbon != nil {
		line += fmt.Sprintf(", %.1f kg CO2", g.CarbonKg)
	}
	fmt.Println(line)
}

// printFaultSummary reports what the injector did to the control plane and how
// the degraded modes responded. Silent when fault injection is off and no
// watchdog is armed.
func printFaultSummary(spec scenario.CoordSpec, res *scenario.CoordResult) {
	if !spec.Faults.Enabled() && spec.WatchdogTTL == 0 {
		return
	}
	c := res.FaultCounters
	fmt.Printf("  faults injected:          reads dropped %d / stale %d; commands dropped %d, duplicated %d, delayed %d; outages %d agent, %d controller\n",
		c.ReadsDropped, c.ReadsStaled, c.CommandsDropped, c.CommandsDuplicated,
		c.CommandsDelayed, c.AgentOutages, c.ControllerOutages)
	fmt.Printf("  degraded-mode response:   retries %d, abandoned %d, stale evals %d, controller restarts %d/%d, fail-safe activations %d\n",
		res.Metrics.Retries, res.Metrics.AbandonedOverrides, res.Metrics.StaleTelemetry,
		res.Metrics.Restarts, res.Metrics.Crashes, res.FailSafeActivations)
}

// printAnalytics renders the run's distribution analytics.
func printAnalytics(res *scenario.CoordResult) {
	fmt.Println()
	check(scenario.ChargeDurationTable(res).Render(os.Stdout))
	fmt.Println()
	check(scenario.DODHistogramTable(res, 8).Render(os.Stdout))
	fmt.Println()
	check(scenario.ChargeDurationCDF(res).RenderASCII(os.Stdout, 78, 16))
}

// runEndurance executes the multi-year realized-AOR simulation and prints
// the comparison against Table II targets.
func runEndurance(years float64, seed int64, modeStr, policyStr string, limitMW float64, p1, p2, p3 int, csv bool, ckpt checkpointFlags) {
	mode, err := parseMode(modeStr)
	check(err)
	pol, err := charger.ByName(policyStr)
	check(err)
	spec := scenario.EnduranceSpec{
		Years: years, Seed: seed,
		NumP1: p1, NumP2: p2, NumP3: p3,
		Mode: mode, LocalPolicy: pol,
		Checkpoint:      ckpt.path,
		CheckpointEvery: ckpt.interval,
		Resume:          ckpt.resume,
		Interrupt:       armInterrupt(),
	}
	if limitMW > 0 {
		spec.MSBLimit = units.Power(limitMW) * units.Megawatt
	}
	res, err := scenario.RunEndurance(spec)
	check(err)
	if res.Interrupted {
		reportInterrupted(ckpt)
		return
	}
	tbl := scenario.EnduranceTable(res)
	if csv {
		check(tbl.RenderCSV(os.Stdout))
	} else {
		check(tbl.Render(os.Stdout))
	}
	fmt.Printf("\nmax server capping over the horizon: %v; overrides issued: %d\n",
		res.Metrics.MaxCapping, res.Metrics.OverridesIssued)
}

// runCustom executes one user-specified experiment and prints a summary.
func runCustom(cs customSpec) {
	mode, err := parseMode(cs.mode)
	check(err)
	pol, err := charger.ByName(cs.policy)
	check(err)
	spec := scenario.CoordSpec{
		NumP1: cs.p1, NumP2: cs.p2, NumP3: cs.p3,
		Seed:        cs.seed,
		MSBLimit:    units.Power(cs.limitMW) * units.Megawatt,
		Mode:        mode,
		LocalPolicy: pol,
		AvgDOD:      units.Fraction(cs.dod),
	}
	if cs.faultsSpec != "" {
		fcfg, err := faults.ParseSpec(cs.faultsSpec)
		check(err)
		spec.Faults = fcfg
	}
	spec.WatchdogTTL = cs.watchdog
	spec.OutageLen = cs.storm
	if cs.admission {
		c := storm.Default()
		spec.Storm = &c
	}
	if cs.guard {
		g := storm.DefaultGuardConfig()
		spec.Guard = &g
	}
	gs, err := buildGridSpec(cs)
	check(err)
	spec.Grid = gs
	if spec.Faults.Enabled() || spec.WatchdogTTL > 0 {
		// A lossy control plane needs the degraded-mode machinery armed:
		// staleness detection and override retransmission.
		spec.StaleAfter = 10 * time.Second
		spec.Retry = dynamo.DefaultRetryPolicy()
	}
	if cs.tracePath != "" {
		f, err := os.Open(cs.tracePath)
		check(err)
		m, err := trace.ReadCSV(f)
		f.Close()
		check(err)
		spec.Trace = m
	}
	spec.Kernel = cs.kernel
	spec.Checkpoint = cs.ckpt.path
	spec.CheckpointEvery = cs.ckpt.interval
	spec.Resume = cs.ckpt.resume
	spec.Interrupt = armInterrupt()
	if cs.serve != "" {
		sink := obs.NewSink(obs.DefaultFlightCap)
		spec.Obs = sink
		srv, addr, err := obs.Serve(cs.serve, sink, func() map[string]any {
			return map[string]any{"mode": cs.mode, "seed": cs.seed}
		})
		check(err)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "coordsim: observability on http://%s (metrics, healthz, debug/flight, debug/pprof)\n", addr)
		if cs.pace > 0 {
			// Pace virtual time against the wall clock so a scraper can watch
			// the run unfold: sleep one tick's worth of wall time, scaled.
			step := spec.Step
			if step == 0 {
				step = 3 * time.Second // RunCoordinated's default tick
			}
			wait := time.Duration(float64(step) / cs.pace)
			spec.StepHook = func(time.Duration) { wallSleep(wait) }
		}
	}
	res, err := scenario.RunCoordinated(spec)
	check(err)
	if res.Interrupted {
		reportInterrupted(cs.ckpt)
		return
	}

	fmt.Printf("experiment: %d racks (%d/%d/%d), %s mode, %s charger, %.2f MW limit, target DOD %.0f%%\n",
		cs.p1+cs.p2+cs.p3, cs.p1, cs.p2, cs.p3, mode, pol.Name(), cs.limitMW, cs.dod*100)
	fmt.Printf("  transition length:        %v (realised avg DOD %v)\n",
		res.TransitionLength, res.AvgDOD)
	fmt.Printf("  peak MSB draw:            %v\n", res.PeakPower)
	fmt.Printf("  max server capping:       %v (%.0f%% of IT load)\n",
		res.Metrics.MaxCapping, float64(res.Metrics.MaxCappingFraction)*100)
	fmt.Printf("  capped energy:            %v\n", res.Metrics.CappedEnergy)
	fmt.Printf("  overrides issued:         %d (plans %d, throttle events %d)\n",
		res.Metrics.OverridesIssued, res.Metrics.PlansComputed, res.Metrics.ThrottleEvents)
	fmt.Printf("  SLAs met:                 P1 %d/%d, P2 %d/%d, P3 %d/%d\n",
		res.SLAMet[rack.P1], res.Racks[rack.P1],
		res.SLAMet[rack.P2], res.Racks[rack.P2],
		res.SLAMet[rack.P3], res.Racks[rack.P3])
	fmt.Printf("  last charge completed:    %v after the transition\n",
		res.LastChargeDone.Round(time.Second))
	if len(res.Tripped) > 0 {
		fmt.Printf("  BREAKERS TRIPPED:         %v\n", res.Tripped)
	}
	fmt.Printf("  kernel:                   %s\n", kernelLine(res))
	printStormSummary(spec, res)
	printGridSummary(spec, res)
	printFaultSummary(spec, res)
	if cs.analytics {
		printAnalytics(res)
	}
}

// kernelLine names the tick-loop kernel a run used: the event kernel with
// its dense-tick share, or the dense loop with the reason it ran.
func kernelLine(res *scenario.CoordResult) string {
	if n := res.KernelTicksExecuted + res.KernelTicksSkipped; n > 0 {
		return fmt.Sprintf("event (%d/%d ticks executed densely)", res.KernelTicksExecuted, n)
	}
	if res.KernelFallback != "" {
		return fmt.Sprintf("dense (%s)", res.KernelFallback)
	}
	return "dense (requested)"
}
