package trace

import (
	"testing"
	"time"

	"coordcharge/internal/par"
	"coordcharge/internal/units"
)

// withFrameMemo swaps in an empty frame memo with the given budget for the
// duration of a test.
func withFrameMemo(t *testing.T, budget int64) *boundedMemo {
	t.Helper()
	old := frameMemo.Load()
	t.Cleanup(func() { frameMemo.Store(old) })
	m := &boundedMemo{budget: budget}
	frameMemo.Store(m)
	return m
}

func mustGenerator(t testing.TB, spec Spec) *Generator {
	t.Helper()
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func equalRows(a, b []units.Power) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFrameMemoMatchesFrames: a memoised row, cold or warm, equals the
// Frames row for the same time, and a hit leaves the caller's buffer its
// own.
func TestFrameMemoMatchesFrames(t *testing.T) {
	withFrameMemo(t, frameMemoBudget)
	g := mustGenerator(t, Spec{NumRacks: 316, Seed: 3, WeekendLevel: 0.7})
	var want, got []units.Power
	for _, at := range []time.Duration{0, 3 * time.Second, 14 * time.Hour, 5*24*time.Hour + 7*time.Second} {
		want = g.Frames(want, at, at, 3*time.Second)
		cold := g.Frame(nil, at)
		if !equalRows(cold, want) {
			t.Fatalf("t=%v: cold memo row differs from Frames", at)
		}
		got = g.Frame(got, at)
		if !equalRows(got, want) {
			t.Fatalf("t=%v: warm memo row differs from Frames", at)
		}
		// Scribbling on a returned row must not reach the memo.
		got[0] = -1
		if again := g.Frame(nil, at); !equalRows(again, want) {
			t.Fatalf("t=%v: caller write leaked into the memo", at)
		}
	}
}

// TestFrameMemoIdentity: generators that differ only in seed, trough, or a
// single SwingScale weight never share memoised rows, while a fresh
// generator of an identical spec does.
func TestFrameMemoIdentity(t *testing.T) {
	m := withFrameMemo(t, frameMemoBudget)
	const n = 30
	base := Spec{NumRacks: n, Seed: 11, SwingScale: swingRamp(n)}
	bumped := swingRamp(n)
	bumped[17] *= 1.5
	variants := []Spec{
		{NumRacks: n, Seed: 12, SwingScale: swingRamp(n)},
		{NumRacks: n, Seed: 11, SwingScale: swingRamp(n), TroughPower: 1.8 * units.Megawatt},
		{NumRacks: n, Seed: 11, SwingScale: bumped},
	}
	at := 14 * time.Hour
	g := mustGenerator(t, base)
	first := g.Frame(nil, at)
	for _, spec := range variants {
		v := mustGenerator(t, spec)
		if v.id == g.id {
			t.Fatalf("spec %+v shares the base generator's identity", spec)
		}
		got := v.Frame(nil, at)
		if want := v.Frames(nil, at, at, time.Second); !equalRows(got, want) {
			t.Fatalf("spec %+v: memo served a row that is not its own", spec)
		}
		if equalRows(got, first) {
			t.Fatalf("spec %+v: row identical to the base generator's", spec)
		}
	}
	used := m.used.Load()
	twin := mustGenerator(t, base)
	if twin.id != g.id {
		t.Fatal("identical specs got different identities")
	}
	if got := twin.Frame(nil, at); !equalRows(got, first) {
		t.Fatal("identical spec read a different row")
	}
	if m.used.Load() != used {
		t.Fatal("identical spec stored a second copy instead of hitting")
	}
}

// TestFrameMemoConcurrentReaders: par workers reading overlapping frames of
// one trace all see exact rows, and each frame is stored once (run under
// -race in CI).
func TestFrameMemoConcurrentReaders(t *testing.T) {
	m := withFrameMemo(t, frameMemoBudget)
	g := mustGenerator(t, Spec{NumRacks: 64, Seed: 5})
	const frames = 40
	want := g.Frames(nil, 0, (frames-1)*3*time.Second, 3*time.Second)
	bad := par.Map(8, 4, func(w int) int {
		var buf []units.Power
		mismatches := 0
		for k := 0; k < frames; k++ {
			j := (k + w*7) % frames
			buf = g.Frame(buf, time.Duration(j)*3*time.Second)
			if !equalRows(buf, want[j*64:(j+1)*64]) {
				mismatches++
			}
		}
		return mismatches
	})
	for w, n := range bad {
		if n != 0 {
			t.Fatalf("worker %d read %d wrong rows", w, n)
		}
	}
	if got, want := m.used.Load(), int64(frames*64*8); got != want {
		t.Fatalf("memo holds %d bytes, want exactly one copy of %d frames (%d bytes)", got, frames, want)
	}
}

// TestFrameMemoBudget: stored bytes never exceed the budget; past it frames
// are computed, still exact, and not stored.
func TestFrameMemoBudget(t *testing.T) {
	const n, fit = 40, 5
	rowBytes := int64(n * 8)
	m := withFrameMemo(t, fit*rowBytes+rowBytes/2)
	g := mustGenerator(t, Spec{NumRacks: n, Seed: 9})
	var buf []units.Power
	for k := 0; k < 3*fit; k++ {
		at := time.Duration(k) * time.Minute
		buf = g.Frame(buf, at)
		if want := g.Frames(nil, at, at, time.Minute); !equalRows(buf, want) {
			t.Fatalf("frame %d: over-budget read differs from Frames", k)
		}
		if used := m.used.Load(); used > m.budget {
			t.Fatalf("frame %d: memo holds %d bytes, budget %d", k, used, m.budget)
		}
	}
	stored := 0
	m.m.Range(func(_, _ any) bool { stored++; return true })
	if stored != fit || m.used.Load() != fit*rowBytes {
		t.Fatalf("stored %d rows (%d bytes), want %d rows (%d bytes)", stored, m.used.Load(), fit, fit*rowBytes)
	}
}
