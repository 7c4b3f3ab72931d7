package dynamo

import (
	"testing"
	"time"

	"coordcharge/internal/power"
	"coordcharge/internal/rack"
)

// TestLeafPollAllocs pins the allocation budget of one leaf poll generation
// over an idle row: per agent the read request, its boxed snapshot and the
// reply; per generation the generation record and its one reply callback;
// and per rack the uncap an unloaded breaker sends. A closure, label or
// endpoint name built per message, or a re-sorted or re-allocated view of
// the cache, would break the ceiling.
func TestLeafPollAllocs(t *testing.T) {
	prios := []rack.Priority{rack.P1, rack.P1, rack.P2, rack.P2, rack.P3, rack.P3}
	engine, _, _, leaf := asyncRow(t, prios, ModeNone, power.DefaultRPPLimit, 20*time.Millisecond, 0)
	const poll = 3 * time.Second
	next := 3 * poll
	engine.Run(next) // warm: labels interned, event pool grown
	gen := leaf.gen
	allocs := testing.AllocsPerRun(20, func() {
		next += poll
		engine.Run(next)
	})
	if runs := leaf.gen - gen; runs != 21 {
		t.Fatalf("%d poll generations ran, want one per measured window (21)", runs)
	}
	n := len(prios)
	if ceiling := float64(4*n + 2); allocs > ceiling {
		t.Errorf("one poll generation of %d agents: %.1f allocations, ceiling %.0f", n, allocs, ceiling)
	}
}
