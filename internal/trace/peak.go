package trace

import (
	"time"

	"coordcharge/internal/units"
)

// FirstPeak returns the virtual time of the maximum aggregate draw of any
// source within [0, horizon], scanned at the given resolution (the paper
// injects its open transitions "at the first peak in the trace" where
// available power is most constrained). Ties go to the earliest frame.
// Non-positive arguments default to 24 hours and one minute.
//
// For the synthetic Generator the answer is a pure function of the (seeded)
// spec, so it is found by a rate-bounded search that evaluates only the
// frames that could hold the peak (firstPeakPruned), and figure suites,
// sweeps, and benchmark harnesses that rebuild the same generator dozens of
// times per process share one memoised result. Other sources are scanned
// exhaustively.
func FirstPeak(s Source, horizon, resolution time.Duration) time.Duration {
	if horizon <= 0 {
		horizon = 24 * time.Hour
	}
	if resolution <= 0 {
		resolution = time.Minute
	}
	g, ok := s.(*Generator)
	if !ok {
		return firstPeakScan(s, horizon, resolution)
	}
	key := firstPeakKey{gen: g.id, horizon: horizon, resolution: resolution}
	memo := firstPeakMemo.Load()
	if v, ok := memo.m.Load(key); ok {
		return v.(time.Duration)
	}
	t := firstPeakPruned(g, horizon, resolution)
	memo.store(key, 1, func() any { return t })
	return t
}

// firstPeakKey identifies one memoised FirstPeak search: the generator's
// identity plus the scan window.
type firstPeakKey struct {
	gen                 genID
	horizon, resolution time.Duration
}

// firstPeakBudget caps the FirstPeak memo at this many entries: a process
// cycling through unboundedly many distinct trace specs (a fuzzing loop, a
// parameter search) must not leak; past the cap new specs simply pay the
// search.
const firstPeakBudget = 1024

var firstPeakMemo = newMemoPointer(firstPeakBudget)

// FirstPeak scans the generator's first diurnal period for the aggregate
// maximum.
func (g *Generator) FirstPeak(resolution time.Duration) time.Duration {
	horizon := g.spec.DiurnalPeriod
	if horizon > g.spec.Duration {
		horizon = g.spec.Duration
	}
	return FirstPeak(g, horizon, resolution)
}

// firstPeakScan is the exhaustive scan: every frame of the window, summed
// in rack order, first maximum wins. It reads in frame blocks so the
// per-tick trace terms are computed once per frame.
func firstPeakScan(s Source, horizon, resolution time.Duration) time.Duration {
	n := s.NumRacks()
	best, bestT := units.Power(-1), time.Duration(0)
	const block = 256
	var buf []units.Power
	for t0 := time.Duration(0); t0 <= horizon; t0 += block * resolution {
		t1 := t0 + (block-1)*resolution
		if t1 > horizon {
			t1 = horizon
		}
		buf = Frames(s, buf, t0, t1, resolution)
		for k := 0; k*n < len(buf); k++ {
			var total units.Power
			for _, p := range buf[k*n : (k+1)*n] {
				total += p
			}
			if total > best {
				best, bestT = total, t0+time.Duration(k)*resolution
			}
		}
	}
	return bestT
}

const (
	// peakGridSpan is the spacing of the pruned search's first pass
	// (sixteen frames at the default one-minute resolution, which needed
	// the fewest evaluations over seeds 1–13 at 30 and 316 racks).
	peakGridSpan = 16 * time.Minute
	// peakPadW pads the pruned search's interval bound against float
	// rounding (DESIGN.md §15): the computed aggregate differs from the
	// exact one by far less than a milliwatt at megawatt scale, so 2 W
	// cannot hide a frame that ties or beats the best.
	peakPadW = units.Power(2)
)

// firstPeakPruned returns exactly what firstPeakScan returns for g — the
// earliest frame of [0, horizon] holding the maximum rack-order aggregate —
// without evaluating every frame. Within a run of consecutive frames that
// share one SwingRegime the aggregate is a fixed function of t whose slope
// AggregateRate bounds, so no frame strictly between evaluated frames a and
// b exceeds the cone bound (f(a)+f(b))/2 + rate·(t_b−t_a)/2 (+ peakPadW for
// rounding). The search evaluates a coarse grid, then bisects every interval
// whose bound is not strictly below the best value found so far; an interval
// is pruned only when none of its frames can reach, let alone tie, the
// maximum, so the earliest maximal frame is always evaluated.
func firstPeakPruned(g *Generator, horizon, resolution time.Duration) time.Duration {
	last := int64(horizon / resolution)
	rate := g.AggregateRate() * resolution.Seconds() // watts per frame
	var buf []units.Power
	best, bestK := units.Power(-1), int64(0)
	eval := func(k int64) units.Power {
		t := time.Duration(k) * resolution
		buf = g.Frames(buf, t, t, resolution)
		var total units.Power
		for _, p := range buf {
			total += p
		}
		if total > best || (total == best && k < bestK) {
			best, bestK = total, k
		}
		return total
	}
	type span struct {
		a, b   int64
		fa, fb units.Power
	}
	stride := int64(peakGridSpan / resolution)
	if stride < 1 {
		stride = 1
	}
	var open []span
	for s := int64(0); s <= last; {
		e := g.regimeRunEnd(s, last, resolution)
		fa := eval(s)
		for a := s; a < e; {
			b := min(a+stride, e)
			fb := eval(b)
			open = append(open, span{a, b, fa, fb})
			a, fa = b, fb
		}
		s = e + 1
	}
	for len(open) > 0 {
		sp := open[len(open)-1]
		open = open[:len(open)-1]
		if sp.b-sp.a < 2 {
			continue
		}
		bound := (sp.fa+sp.fb)/2 + units.Power(rate*float64(sp.b-sp.a)/2) + peakPadW
		if bound < best {
			continue
		}
		m := sp.a + (sp.b-sp.a)/2
		fm := eval(m)
		open = append(open, span{sp.a, m, sp.fa, fm}, span{m, sp.b, fm, sp.fb})
	}
	return time.Duration(bestK) * resolution
}

// regimeRunEnd returns the last frame index, at most last, of the run of
// consecutive frames starting at frame s that share s's SwingRegime. The
// regime is constant within a day, so only the first frame after each day
// boundary needs checking.
func (g *Generator) regimeRunEnd(s, last int64, resolution time.Duration) int64 {
	const day = 24 * time.Hour
	r := g.SwingRegime(time.Duration(s) * resolution)
	for e := s; ; {
		next := (time.Duration(e)*resolution/day + 1) * day
		k := int64((next + resolution - 1) / resolution)
		if k > last {
			return last
		}
		if g.SwingRegime(time.Duration(k)*resolution) != r {
			return k - 1
		}
		e = k
	}
}
