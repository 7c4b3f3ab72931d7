package coordcharge

import (
	"fmt"
	"testing"
	"time"

	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/obs"
	"coordcharge/internal/scenario"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// Kernel parity: the event-driven kernel's one correctness bar. For every
// scenario arm and seed, a run with CoordSpec.Kernel = "event" must produce a
// flight digest and result summary byte-identical to the dense reference —
// including runs hard-killed and resumed from checkpoints, and checkpoints
// written by one kernel and resumed by the other. Arms the kernel cannot
// prove bounds for (faults, the grid plane) exercise the silent dense
// fallback and must be trivially byte-equal with zero skipped ticks.

// kernelArm is one scenario family under parity test.
type kernelArm struct {
	name string
	spec func(seed int64) scenario.CoordSpec
	// eligible: the event kernel actually engages (skipped ticks > 0);
	// otherwise the arm proves the dense fallback.
	eligible bool
}

func kernelArms() []kernelArm {
	return []kernelArm{
		{"baseline", func(seed int64) scenario.CoordSpec {
			return scenario.CoordSpec{
				NumP1: 10, NumP2: 10, NumP3: 10, Seed: seed,
				MSBLimit: 230 * units.Kilowatt, Mode: dynamo.ModePriorityAware,
				AvgDOD: 0.5, MaxChargeDuration: 6 * time.Hour,
			}
		}, true},
		{"storm", func(seed int64) scenario.CoordSpec {
			spec := stormSpec(seed)
			armStorm(&spec)
			return spec
		}, true},
		{"outage", func(seed int64) scenario.CoordSpec {
			// stormSpec without admission: the hair-trigger curve trips
			// breakers, exercising the kernel's tripped/overdrawn density.
			return stormSpec(seed)
		}, true},
		{"grid-shrink", func(seed int64) scenario.CoordSpec {
			spec, err := scenario.GridStormSpec(seed, 0.35)
			if err != nil {
				panic(err)
			}
			return spec
		}, false},
		{"grid-shave", func(seed int64) scenario.CoordSpec {
			spec, err := scenario.GridShaveSpec(seed)
			if err != nil {
				panic(err)
			}
			return spec
		}, false},
		{"faults", func(seed int64) scenario.CoordSpec {
			spec := stormSpec(seed)
			armStorm(&spec)
			spec.Faults = faults.Default()
			spec.Faults.Seed = seed
			spec.StaleAfter = 10 * time.Second
			spec.Retry = dynamo.DefaultRetryPolicy()
			return spec
		}, false},
	}
}

// runKernel executes one spec on the requested kernel with a fresh flight
// recorder and returns the full result plus the digest.
func runKernel(t *testing.T, spec scenario.CoordSpec, kernel string) (*scenario.CoordResult, string) {
	t.Helper()
	spec.Kernel = kernel
	spec.Obs = obs.NewSink(0)
	res, err := scenario.RunCoordinated(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, spec.Obs.Flight.Digest()
}

func checkKernelParity(t *testing.T, arm kernelArm, seed int64) {
	t.Helper()
	dense, denseDigest := runKernel(t, arm.spec(seed), scenario.KernelDense)
	event, eventDigest := runKernel(t, arm.spec(seed), scenario.KernelEvent)

	if eventDigest != denseDigest {
		t.Errorf("flight digest diverged:\n  event %s\n  dense %s", eventDigest, denseDigest)
	}
	if got, want := event.Summary(), dense.Summary(); got != want {
		t.Errorf("summary diverged:\n--- event ---\n%s--- dense ---\n%s", got, want)
	}
	if dense.KernelTicksSkipped != 0 || dense.KernelTicksExecuted != 0 {
		t.Errorf("dense run reported kernel counters: executed=%d skipped=%d",
			dense.KernelTicksExecuted, dense.KernelTicksSkipped)
	}
	if arm.eligible {
		if event.KernelTicksSkipped == 0 {
			t.Errorf("eligible arm skipped no ticks (executed=%d); the kernel never engaged",
				event.KernelTicksExecuted)
		}
	} else if event.KernelTicksSkipped != 0 || event.KernelTicksExecuted != 0 {
		t.Errorf("ineligible arm must fall back to dense, got executed=%d skipped=%d",
			event.KernelTicksExecuted, event.KernelTicksSkipped)
	}
}

// TestKernelParity: 4 seeds across every arm, uninterrupted.
func TestKernelParity(t *testing.T) {
	for _, arm := range kernelArms() {
		t.Run(arm.name, func(t *testing.T) {
			seeds := int64(4)
			if testing.Short() && arm.name != "storm" {
				seeds = 1
			}
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					checkKernelParity(t, arm, seed)
				})
			}
		})
	}
}

// TestKernelParityFrameMemo: the trace frame memo is invisible. One arm run
// twice in one process — first from an empty memo, then with every frame it
// needs already memoised — lands on the same digest and summary, and both
// equal the dense reference.
func TestKernelParityFrameMemo(t *testing.T) {
	arm := kernelArms()[0]
	trace.ResetFrameMemo()
	cold, coldDigest := runKernel(t, arm.spec(1), scenario.KernelEvent)
	warm, warmDigest := runKernel(t, arm.spec(1), scenario.KernelEvent)
	if warmDigest != coldDigest {
		t.Errorf("flight digest diverged:\n  warm %s\n  cold %s", warmDigest, coldDigest)
	}
	if got, want := warm.Summary(), cold.Summary(); got != want {
		t.Errorf("summary diverged:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
	checkKernelParity(t, arm, 1)
}

// TestKernelCrashResume: the chaos harness on the event kernel. A storm run
// is hard-killed mid-outage and mid-drain, resumed from checkpoints, and must
// land byte-identical to the uninterrupted *dense* run — checkpoint writes on
// the skip path, wake-queue export, and the restore-time schedule rebuild all
// sit on this path.
func TestKernelCrashResume(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := stormSpec(seed)
			armStorm(&spec)
			wantSummary, wantDigest := runUninterrupted(t, spec)

			spec.Kernel = scenario.KernelEvent
			gotSummary, gotDigest := runWithKills(t, spec, chaosKills(seed))
			if gotDigest != wantDigest {
				t.Errorf("flight digest diverged after kill-and-resume:\n  event resumed %s\n  dense         %s", gotDigest, wantDigest)
			}
			if gotSummary != wantSummary {
				t.Errorf("summary diverged after kill-and-resume:\n--- event resumed ---\n%s--- dense ---\n%s", gotSummary, wantSummary)
			}
		})
	}
}

// TestKernelCrossPlaneResume: checkpoints are portable between kernels in
// both directions. An event-written checkpoint is resumed by the dense loop,
// and a dense-written checkpoint by the event kernel; both runs must match
// the uninterrupted dense reference byte for byte.
func TestKernelCrossPlaneResume(t *testing.T) {
	seed := int64(3)
	spec := stormSpec(seed)
	armStorm(&spec)
	wantSummary, wantDigest := runUninterrupted(t, spec)

	for _, tc := range []struct {
		name  string
		order []string // kernel per attempt: attempt 0 writes, later attempts resume
	}{
		{"event-writes-dense-resumes", []string{scenario.KernelEvent, scenario.KernelDense, scenario.KernelDense}},
		{"dense-writes-event-resumes", []string{scenario.KernelDense, scenario.KernelEvent, scenario.KernelEvent}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gotSummary, gotDigest := runWithKillsVariant(t, spec, chaosKills(seed), func(attempt int) string {
				if attempt >= len(tc.order) {
					return tc.order[len(tc.order)-1]
				}
				return tc.order[attempt]
			})
			if gotDigest != wantDigest {
				t.Errorf("flight digest diverged:\n  resumed %s\n  dense   %s", gotDigest, wantDigest)
			}
			if gotSummary != wantSummary {
				t.Errorf("summary diverged:\n--- resumed ---\n%s--- dense ---\n%s", gotSummary, wantSummary)
			}
		})
	}
}
