package bus

import (
	"testing"
	"time"

	"coordcharge/internal/sim"
)

// Allocation ceilings. A message is one allocation: the *Message is itself
// the scheduled event, labels are interned per (kind, endpoint), and the
// engine recycles the event once it has run. A closure or label built per
// message would break these ceilings.

// roundTripBus returns a bus with a "svc" endpoint that replies to every
// request with its payload, warmed so labels are interned and the engine's
// event pool and queue have grown.
func roundTripBus() (*sim.Engine, *Bus, func(time.Duration, any)) {
	e := sim.NewEngine()
	b := New(e, ConstantLatency(5*time.Millisecond))
	b.Register("svc", func(now time.Duration, msg *Message) {
		if msg.Kind == "req" {
			b.Reply(now, msg, msg.Payload)
		}
	})
	onReply := func(time.Duration, any) {}
	b.Send("cli", "svc", "ping", nil)
	b.Request("cli", "svc", "req", nil, onReply)
	e.Run(e.Now() + time.Second)
	return e, b, onReply
}

func TestSendAllocs(t *testing.T) {
	e, b, _ := roundTripBus()
	allocs := testing.AllocsPerRun(100, func() {
		b.Send("cli", "svc", "ping", nil)
		e.Run(e.Now() + time.Second)
	})
	if allocs > 1 {
		t.Errorf("one-way Send and delivery: %.1f allocations, ceiling 1", allocs)
	}
}

func TestRequestReplyAllocs(t *testing.T) {
	e, b, onReply := roundTripBus()
	allocs := testing.AllocsPerRun(100, func() {
		b.Request("cli", "svc", "req", nil, onReply)
		e.Run(e.Now() + time.Second)
	})
	if allocs > 2 {
		t.Errorf("Request→Reply round trip: %.1f allocations, ceiling 2", allocs)
	}
}

func BenchmarkBusRoundTrip(bm *testing.B) {
	e, b, onReply := roundTripBus()
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		b.Request("cli", "svc", "req", nil, onReply)
		e.Run(e.Now() + time.Second)
	}
}
