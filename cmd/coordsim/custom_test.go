package main

import (
	"testing"

	"coordcharge/internal/scenario"
)

func TestKernelLine(t *testing.T) {
	for _, tc := range []struct {
		res  scenario.CoordResult
		want string
	}{
		{scenario.CoordResult{KernelTicksExecuted: 44, KernelTicksSkipped: 2916}, "event (44/2960 ticks executed densely)"},
		{scenario.CoordResult{KernelFallback: "faults"}, "dense (faults)"},
		{scenario.CoordResult{}, "dense (requested)"},
	} {
		if got := kernelLine(&tc.res); got != tc.want {
			t.Errorf("kernelLine = %q, want %q", got, tc.want)
		}
	}
}
