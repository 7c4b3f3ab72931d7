package coordcharge

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"coordcharge/internal/dynamo"
	"coordcharge/internal/obs"
	"coordcharge/internal/rack"
	"coordcharge/internal/rng"
	"coordcharge/internal/scenario"
)

// Kill-and-resume chaos: the crash-safety acceptance for the checkpoint
// subsystem. A storm run with checkpointing armed is hard-stopped at
// randomized ticks — the in-process equivalent of SIGKILL: no final
// checkpoint is written and RunCoordinated returns ErrAborted — then rebuilt
// from the spec and resumed from the last on-disk checkpoint. After the
// final resume completes, the run's summary and flight digest must be
// byte-identical to an uninterrupted run of the same spec. Both control
// planes are covered: the synchronous plane restores state directly, the
// distributed plane restores by verified deterministic replay.

// chaosKills picks the kill offsets, relative to run start, for one seed:
// one inside the grid event (the outage spans [PreRoll, PreRoll+OutageLen),
// with PreRoll at its 2-minute default) and one in the recharge-storm drain
// after restore (which takes hours at stormSpec's breaker limit, so half an
// hour in is safely mid-drain).
func chaosKills(seed int64) []time.Duration {
	r := rng.New(seed * 7919)
	const preRoll = 2 * time.Minute
	outage := preRoll + 5*time.Second + time.Duration(r.Intn(int(80*time.Second)))
	drain := preRoll + 90*time.Second + 5*time.Minute + time.Duration(r.Intn(int(25*time.Minute)))
	return []time.Duration{outage, drain}
}

// runUninterrupted is the control arm: no checkpointing at all, proving on
// the other side that checkpoint writes never perturb the simulation. It
// always runs the dense oracle, whatever kernel the spec selects.
func runUninterrupted(t *testing.T, spec scenario.CoordSpec) (summary, digest string) {
	t.Helper()
	spec.Kernel = scenario.KernelDense
	spec.Obs = obs.NewSink(0)
	res, err := scenario.RunCoordinated(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Summary(), spec.Obs.Flight.Digest()
}

// runWithKills runs the spec with checkpointing every 30 s of virtual time,
// hard-stopping at each kill offset and resuming from the checkpoint file
// with a fresh process-equivalent (new fleet, new control plane, new obs
// sink), then lets the last resume run to completion.
func runWithKills(t *testing.T, spec scenario.CoordSpec, kills []time.Duration) (summary, digest string) {
	t.Helper()
	return runWithKillsVariant(t, spec, kills, nil)
}

// runWithKillsVariant is runWithKills with an optional per-attempt kernel
// override, letting the parity suite resume a checkpoint on a different
// kernel than the one that wrote it.
func runWithKillsVariant(t *testing.T, spec scenario.CoordSpec, kills []time.Duration, kernelAt func(attempt int) string) (summary, digest string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var start time.Duration
	haveStart := false
	for attempt := 0; ; attempt++ {
		run := spec
		if kernelAt != nil {
			run.Kernel = kernelAt(attempt)
		}
		run.Obs = obs.NewSink(0)
		run.Checkpoint = path
		run.CheckpointEvery = 30 * time.Second
		if attempt > 0 {
			run.Resume = path
		}
		if attempt < len(kills) {
			at := kills[attempt]
			run.HardStop = func(now time.Duration) bool {
				if !haveStart {
					start, haveStart = now, true
				}
				return now-start >= at
			}
		}
		res, err := scenario.RunCoordinated(run)
		if attempt < len(kills) {
			if !errors.Is(err, scenario.ErrAborted) {
				t.Fatalf("kill %d at +%v: err = %v, want ErrAborted", attempt, kills[attempt], err)
			}
			if _, statErr := os.Stat(path); statErr != nil {
				t.Fatalf("kill %d at +%v left no checkpoint: %v", attempt, kills[attempt], statErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("final resume: %v", err)
		}
		return res.Summary(), run.Obs.Flight.Digest()
	}
}

func checkChaosSeed(t *testing.T, seed int64, distributed bool) {
	t.Helper()
	spec := stormSpec(seed)
	armStorm(&spec)
	spec.Distributed = distributed
	spec.Kernel = scenario.KernelDense // the event kernel's arm is TestKernelCrashResume

	wantSummary, wantDigest := runUninterrupted(t, spec)
	gotSummary, gotDigest := runWithKills(t, spec, chaosKills(seed))

	if gotDigest != wantDigest {
		t.Errorf("flight digest diverged after kill-and-resume:\n  resumed       %s\n  uninterrupted %s", gotDigest, wantDigest)
	}
	if gotSummary != wantSummary {
		t.Errorf("summary diverged after kill-and-resume:\n--- resumed ---\n%s--- uninterrupted ---\n%s", gotSummary, wantSummary)
	}
}

// TestCrashResumeSync covers the synchronous control plane (direct state
// restore).
func TestCrashResumeSync(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkChaosSeed(t, seed, false)
		})
	}
}

// TestCrashResumeDistributed covers the message-passing control plane
// (verified replay restore: event closures in the engine queue cannot be
// serialized, so the resume re-executes the timeline and proves it landed on
// the checkpoint's digests).
func TestCrashResumeDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("full charging-period simulations on the distributed plane")
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkChaosSeed(t, seed, true)
		})
	}
}

// TestCrashResumeGracefulInterrupt covers the SIGTERM path: Interrupt makes
// the run write a final checkpoint at the exact stop tick and return a
// partial result with Interrupted set; the resume must still be bit-exact.
// Both kernels write and resume, each against the dense reference.
func TestCrashResumeGracefulInterrupt(t *testing.T) {
	spec := stormSpec(1)
	armStorm(&spec)
	wantSummary, wantDigest := runUninterrupted(t, spec)
	for _, kernel := range []string{scenario.KernelDense, scenario.KernelEvent} {
		t.Run(kernel, func(t *testing.T) {
			spec := spec
			spec.Kernel = kernel
			checkGracefulInterrupt(t, spec, wantSummary, wantDigest)
		})
	}
}

func checkGracefulInterrupt(t *testing.T, spec scenario.CoordSpec, wantSummary, wantDigest string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	first := spec
	first.Obs = obs.NewSink(0)
	first.Checkpoint = path
	first.CheckpointEvery = time.Hour // cadence never fires; only the final write
	var start time.Duration
	haveStart := false
	stopAt := 7 * time.Minute
	first.Interrupt = func() bool { return haveStart }
	first.HardStop = func(now time.Duration) bool {
		// Abuse HardStop's now-visibility to arm Interrupt at +stopAt; it
		// never stops anything itself.
		if start == 0 && !haveStart {
			start = now
		}
		if now-start >= stopAt {
			haveStart = true
		}
		return false
	}
	res, err := scenario.RunCoordinated(first)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("run was not interrupted")
	}

	second := spec
	second.Obs = obs.NewSink(0)
	second.Resume = path
	res2, err := scenario.RunCoordinated(second)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Obs.Flight.Digest(); got != wantDigest {
		t.Errorf("flight digest diverged after graceful interrupt: %s vs %s", got, wantDigest)
	}
	if got := res2.Summary(); got != wantSummary {
		t.Errorf("summary diverged after graceful interrupt:\n--- resumed ---\n%s--- uninterrupted ---\n%s", got, wantSummary)
	}
}

// enduranceSummary folds an endurance result into a deterministic string for
// byte-equality checks; floats print as hex so equality means bit-exact.
func enduranceSummary(res *scenario.EnduranceResult) string {
	s := fmt.Sprintf("events=%d outages=%d metrics=%+v unserved=%x drops=%d tripped=%v interrupted=%t",
		res.Events, res.Outages, res.Metrics, float64(res.UnservedEnergy),
		res.LoadDropEvents, res.Tripped, res.Interrupted)
	for _, p := range []rack.Priority{rack.P1, rack.P2, rack.P3} {
		s += fmt.Sprintf("\n%s: aor=%x loss=%x", p, float64(res.AOR[p]), res.LossHoursPerYear[p])
	}
	return s
}

// TestCrashResumeEndurance interrupts a multi-year endurance run twice — one
// hard kill and one graceful interrupt, both landing between Table I failure
// events (some mid-recovery, with outage recharges still queued) — and
// requires the resumed run's result bit-identical to an uninterrupted run:
// same AOR per priority (and thus the same P1 ≥ P2 ≥ P3 redundancy
// ordering), zero breaker trips, same fault accounting.
func TestCrashResumeEndurance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-year endurance runs")
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := scenario.EnduranceSpec{Years: 6, Seed: seed, Mode: dynamo.ModePriorityAware}
			base, err := scenario.RunEndurance(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := enduranceSummary(base)

			path := filepath.Join(t.TempDir(), "endurance.ckpt")
			horizon := time.Duration(spec.Years * float64(time.Hour) * 8766)
			r := rng.New(seed * 104729)
			killAt := time.Duration(float64(horizon) * (0.2 + 0.25*r.Float64()))

			kill := spec
			kill.Checkpoint = path
			kill.CheckpointEvery = 24 * time.Hour
			kill.HardStop = func(now time.Duration) bool { return now >= killAt }
			if _, err := scenario.RunEndurance(kill); !errors.Is(err, scenario.ErrAborted) {
				t.Fatalf("hard stop: err = %v, want ErrAborted", err)
			}

			polls := 0
			second := spec
			second.Checkpoint = path
			second.CheckpointEvery = 24 * time.Hour
			second.Resume = path
			second.Interrupt = func() bool { polls++; return polls > 3 }
			mid, err := scenario.RunEndurance(second)
			if err != nil {
				t.Fatal(err)
			}
			if !mid.Interrupted {
				t.Fatal("graceful interrupt did not mark the result")
			}

			final := spec
			final.Resume = path
			res, err := scenario.RunEndurance(final)
			if err != nil {
				t.Fatal(err)
			}
			if got := enduranceSummary(res); got != want {
				t.Errorf("endurance result diverged after kill-and-resume:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got, want)
			}
			if len(res.Tripped) != 0 {
				t.Errorf("breakers tripped across resume: %v", res.Tripped)
			}
			if !(res.AOR[rack.P1] >= res.AOR[rack.P2] && res.AOR[rack.P2] >= res.AOR[rack.P3]) {
				t.Errorf("AOR not priority-ordered after resume: %v", res.AOR)
			}
		})
	}
}
