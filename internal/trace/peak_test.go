package trace

import (
	"sync"
	"testing"
	"time"
)

// checkPrunedPeak asserts the pruned search returns the exhaustive scan's
// frame for one spec and window.
func checkPrunedPeak(t *testing.T, spec Spec, horizon, resolution time.Duration) {
	t.Helper()
	g, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := firstPeakScan(g, horizon, resolution)
	if got := firstPeakPruned(g, horizon, resolution); got != want {
		t.Errorf("racks=%d seed=%d weekend=%v swing=%v horizon=%v res=%v: pruned peak %v, exhaustive %v",
			spec.NumRacks, spec.Seed, spec.WeekendLevel, spec.SwingScale != nil, horizon, resolution, got, want)
	}
}

// TestFirstPeakPrunedMatchesScan: the bound-pruned search is an exact
// replacement for the exhaustive scan — same frame, same earliest-maximum
// tie-break — across seeds, rack counts, swing profiles, weekend damping,
// regime-crossing horizons and resolutions.
func TestFirstPeakPrunedMatchesScan(t *testing.T) {
	racks := []int{1, 7, 30, 316}
	for seed := int64(1); seed <= 64; seed++ {
		for _, n := range racks {
			if n == 316 && testing.Short() && seed > 8 {
				continue
			}
			checkPrunedPeak(t, Spec{NumRacks: n, Seed: seed}, 24*time.Hour, time.Minute)
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, n := range racks {
			shaped := Spec{NumRacks: n, Seed: seed, WeekendLevel: 0.6}
			if n > 1 {
				shaped.SwingScale = swingRamp(n)
			}
			// A week crosses both the day-5 and the day-7 regime switch.
			checkPrunedPeak(t, shaped, 7*24*time.Hour, 7*time.Minute)
			if seed <= 2 {
				checkPrunedPeak(t, shaped, 7*24*time.Hour, time.Minute)
			}
			// Starting the weekend damped makes the weekday peak the answer
			// only after the switch back.
			checkPrunedPeak(t, Spec{NumRacks: n, Seed: seed, WeekendLevel: 0.3, PeakTime: 5*24*time.Hour + 14*time.Hour}, 7*24*time.Hour, 7*time.Minute)
			checkPrunedPeak(t, Spec{NumRacks: n, Seed: seed, NoiseFrac: 0.3}, 24*time.Hour, 7*time.Minute)
		}
	}
	// A peak minutes before the day-5 switch to a deeply damped weekend,
	// with little noise so the diurnal term decides: a bound taken across
	// the switch would prune it.
	for seed := int64(1); seed <= 8; seed++ {
		peak := 5*24*time.Hour - time.Duration(seed)*time.Minute
		for _, n := range []int{7, 30, 316} {
			checkPrunedPeak(t, Spec{NumRacks: n, Seed: seed, WeekendLevel: 0.1, NoiseFrac: 0.01, PeakTime: peak}, 5*24*time.Hour+2*time.Hour, time.Minute)
		}
	}
	// One-second resolution: windows around the first peak and, on a small
	// fleet (the exhaustive oracle reads 439k frames), across the
	// weekday→weekend switch.
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{1, 7, 30} {
			checkPrunedPeak(t, Spec{NumRacks: n, Seed: seed}, 15*time.Hour, time.Second)
		}
		checkPrunedPeak(t, Spec{NumRacks: 2, Seed: seed, WeekendLevel: 0.1, PeakTime: 4*24*time.Hour + 23*time.Hour + 59*time.Minute}, 5*24*time.Hour+2*time.Hour, time.Second)
	}
	// Windows shorter than one grid span, and a single frame.
	checkPrunedPeak(t, Spec{NumRacks: 30, Seed: 3}, 5*time.Minute, time.Minute)
	checkPrunedPeak(t, Spec{NumRacks: 30, Seed: 3}, 59*time.Second, time.Minute)
}

// TestFirstPeakPrunedTieBreak: with the noise silenced the aggregate is a
// pure cosine whose peaks one period apart are bit-equal, so the first must
// win, exactly as in the exhaustive scan.
func TestFirstPeakPrunedTieBreak(t *testing.T) {
	g, err := NewGenerator(Spec{NumRacks: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.shapes {
		g.shapes[i].noiseAmplitude = 0
	}
	horizon := 48 * time.Hour
	if a, b := Aggregate(g, 14*time.Hour), Aggregate(g, 38*time.Hour); a != b {
		t.Fatalf("precondition: peaks one period apart differ (%v vs %v)", a, b)
	}
	want := firstPeakScan(g, horizon, time.Minute)
	if want != 14*time.Hour {
		t.Fatalf("precondition: exhaustive scan found %v, want the first peak at 14h", want)
	}
	if got := firstPeakPruned(g, horizon, time.Minute); got != want {
		t.Fatalf("pruned peak %v, exhaustive %v", got, want)
	}
}

// FuzzFirstPeak: the pruned search agrees with the exhaustive scan on
// arbitrary specs and windows.
func FuzzFirstPeak(f *testing.F) {
	f.Add(int64(1), uint16(316), uint16(24*60), uint16(60), uint8(100))
	f.Add(int64(7), uint16(30), uint16(7*24*60), uint16(7*60), uint8(60))
	f.Add(int64(3), uint16(1), uint16(6*24*60), uint16(1), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, racks, horizonMin, resolutionS uint16, weekendPct uint8) {
		n := 1 + int(racks)%316
		horizon := time.Duration(1+int(horizonMin)%(7*24*60)) * time.Minute
		resolution := time.Duration(1+int(resolutionS)%(10*60)) * time.Second
		if int64(n)*int64(horizon/resolution) > 4e6 {
			resolution = horizon * time.Duration(n) / 4e6
		}
		weekend := float64(1+int(weekendPct)%100) / 100
		checkPrunedPeak(t, Spec{NumRacks: n, Seed: seed, WeekendLevel: weekend}, horizon, resolution)
	})
}

// TestFirstPeakMemoConcurrentMiss: workers that miss on the same spec at
// once all get the same answer, and the memo counts the entry once.
func TestFirstPeakMemoConcurrentMiss(t *testing.T) {
	old := firstPeakMemo.Load()
	defer firstPeakMemo.Store(old)
	fresh := &boundedMemo{budget: firstPeakBudget}
	firstPeakMemo.Store(fresh)
	g, err := NewGenerator(Spec{NumRacks: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := firstPeakScan(g, 24*time.Hour, time.Minute)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := FirstPeak(g, 24*time.Hour, time.Minute); got != want {
				t.Errorf("FirstPeak %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
	if n := fresh.used.Load(); n != 1 {
		t.Fatalf("memo counts %d entries for one key", n)
	}
	// Force the race directly: every worker misses and stores the same key.
	m := &boundedMemo{budget: firstPeakBudget}
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			m.store("k", 1, func() any { return time.Hour })
		}()
	}
	close(start)
	wg.Wait()
	if n := m.used.Load(); n != 1 {
		t.Fatalf("concurrent stores of one key counted %d entries", n)
	}
}
