package scenario

import (
	"testing"
	"time"

	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/grid"
	"coordcharge/internal/obs"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// kernelSpec is a six-rack constrained recharge the event kernel engages on.
// Kernel is left zero: these tests pin what the default does.
func kernelSpec() CoordSpec {
	return CoordSpec{
		NumP1: 2, NumP2: 2, NumP3: 2, Seed: 3,
		MSBLimit: 52 * units.Kilowatt,
		Mode:     dynamo.ModePriorityAware,
		AvgDOD:   0.5,
	}
}

// externalTrace hides the synthetic generator behind the plain Source
// interface, as an imported production trace would arrive.
type externalTrace struct{ trace.Source }

// Every clause that keeps the event kernel off names itself in the result,
// and the run that falls back reports no kernel tick accounting.
func TestKernelFallbackReasons(t *testing.T) {
	gridOn, err := grid.ParseSpec("on")
	if err != nil {
		t.Fatal(err)
	}
	strict := false
	for _, tc := range []struct {
		name string
		arm  func(*CoordSpec)
		want string
	}{
		{"eligible", func(*CoordSpec) {}, ""},
		{"command latency", func(s *CoordSpec) { s.CommandLatency = 20 * time.Second }, "command latency"},
		{"distributed plane", func(s *CoordSpec) { s.Distributed = true }, "distributed plane"},
		{"faults", func(s *CoordSpec) { s.Faults = faults.Default() }, "faults"},
		{"grid plane", func(s *CoordSpec) { s.Grid = gridOn }, "grid plane"},
		{"watchdog", func(s *CoordSpec) { s.WatchdogTTL = 30 * time.Second }, "watchdog"},
		{"StaleAfter", func(s *CoordSpec) { s.StaleAfter = 10 * time.Second }, "stale telemetry"},
		{"StepHook", func(s *CoordSpec) { s.StepHook = func(time.Duration) {} }, "step hook"},
		{"un-relaxed lower levels", func(s *CoordSpec) { s.RelaxLowerLevels = &strict }, "un-relaxed lower levels"},
		{"external trace", func(s *CoordSpec) {
			g, err := traceSource(s, s.NumP1+s.NumP2+s.NumP3)
			if err != nil {
				t.Fatal(err)
			}
			s.Trace = externalTrace{g}
		}, "non-generator trace"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := kernelSpec()
			tc.arm(&spec)
			res, err := RunCoordinated(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.KernelFallback != tc.want {
				t.Errorf("KernelFallback = %q, want %q", res.KernelFallback, tc.want)
			}
			if tc.want == "" {
				if res.KernelTicksSkipped == 0 {
					t.Errorf("eligible spec skipped no ticks (executed=%d)", res.KernelTicksExecuted)
				}
			} else if res.KernelTicksExecuted != 0 || res.KernelTicksSkipped != 0 {
				t.Errorf("fallback run reported kernel ticks: executed=%d skipped=%d",
					res.KernelTicksExecuted, res.KernelTicksSkipped)
			}
		})
	}
}

// A zero Kernel selects the event kernel, which must land byte-identical to
// the explicit dense oracle; the oracle itself reports neither kernel ticks
// nor a fallback.
func TestDefaultKernelIsEvent(t *testing.T) {
	run := func(kernel string) (*CoordResult, string) {
		spec := kernelSpec()
		spec.Kernel = kernel
		spec.Obs = obs.NewSink(0)
		res, err := RunCoordinated(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res, spec.Obs.Flight.Digest()
	}
	def, defDigest := run("")
	dense, denseDigest := run(KernelDense)

	if def.KernelTicksSkipped == 0 || def.KernelFallback != "" {
		t.Errorf("default kernel did not engage: skipped=%d fallback=%q",
			def.KernelTicksSkipped, def.KernelFallback)
	}
	if dense.KernelTicksExecuted != 0 || dense.KernelTicksSkipped != 0 || dense.KernelFallback != "" {
		t.Errorf("dense oracle reported kernel state: executed=%d skipped=%d fallback=%q",
			dense.KernelTicksExecuted, dense.KernelTicksSkipped, dense.KernelFallback)
	}
	if defDigest != denseDigest {
		t.Errorf("flight digest diverged:\n  default %s\n  dense   %s", defDigest, denseDigest)
	}
	if got, want := def.Summary(), dense.Summary(); got != want {
		t.Errorf("summary diverged:\n--- default ---\n%s--- dense ---\n%s", got, want)
	}
}
