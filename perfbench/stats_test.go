package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

// The tail is the highest ladder percentile with at least ten samples
// beyond it, reported with the sample count.
func TestSummarizeTailChoice(t *testing.T) {
	for _, tc := range []struct {
		n       int
		pct     float64
		tail    float64
		wantP50 float64
	}{
		{n: 1, pct: 0, tail: 1, wantP50: 1},
		{n: 19, pct: 0, tail: 19, wantP50: 10},  // p50 would leave 9 beyond
		{n: 20, pct: 50, tail: 10, wantP50: 10}, // rank 10, 10 beyond
		{n: 39, pct: 50, tail: 20, wantP50: 20}, // p75 rank 30 leaves 9
		{n: 40, pct: 75, tail: 30, wantP50: 20},
		{n: 100, pct: 90, tail: 90, wantP50: 50}, // p95 leaves 5
		{n: 199, pct: 90, tail: 180, wantP50: 100},
		{n: 200, pct: 95, tail: 190, wantP50: 100},
		{n: 1000, pct: 99, tail: 990, wantP50: 500},
		{n: 10000, pct: 99.9, tail: 9990, wantP50: 5000},
	} {
		d := summarize(seq(tc.n))
		if d.N != tc.n || d.TailPct != tc.pct || d.Tail != tc.tail || d.P50 != tc.wantP50 || d.Max != float64(tc.n) {
			t.Errorf("n=%d: got %+v, want pct %v tail %v p50 %v", tc.n, d, tc.pct, tc.tail, tc.wantP50)
		}
	}
	if d := summarize(nil); d.N != 0 {
		t.Errorf("empty: %+v", d)
	}
}

func TestMedianDoesNotReorder(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if xs[0] != 3 || xs[3] != 10 {
		t.Errorf("median sorted its input: %v", xs)
	}
}
