package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a percentile before it may
// be reported as the tail.
const minBeyond = 10

// dist summarises one set of timing samples: the median and the highest
// percentile of tailLadder that has at least minBeyond samples beyond it,
// both by the nearest-rank rule.
type dist struct {
	N       int
	P50     float64
	TailPct float64 // 0 when no ladder percentile qualifies
	Tail    float64 // the max when no ladder percentile qualifies
	Max     float64
}

// summarize computes a dist. xs is not modified.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: s[nearestRank(50, len(s))-1], Tail: s[len(s)-1], Max: s[len(s)-1]}
	for _, p := range tailLadder {
		r := nearestRank(p, len(s))
		if len(s)-r >= minBeyond {
			d.TailPct, d.Tail = p, s[r-1]
			break
		}
	}
	return d
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(p float64, n int) int {
	// The epsilon keeps 99.9 % of 10000 at rank 9990 despite rounding.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// median of xs; xs need not be sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
