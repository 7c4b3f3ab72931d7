package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// The engine's execution order is the whole of the simulation's
// determinism: every run is reproducible because events execute in (at,
// seq) order and seq counts every schedule, handle-less or not. These tests
// drive the engine and a deliberately naive reference — a sorted slice with
// linear removal — through the same random program of schedules, posts,
// cancels (including cancels of events that already ran), tickers, stops,
// steps and bounded runs, with handlers that schedule more work, and
// require the identical execution sequence and identical Now, Seq,
// Executed, Pending, NextAt and Snapshot after every operation.

// orderEngine is the surface the program drives.
type orderEngine interface {
	scheduleAt(at time.Duration, label string, fn Handler) any
	post(at time.Duration, label string, fn Handler)
	cancel(h any)
	cancelled(h any) bool
	every(period time.Duration, label string, fn Handler) any
	stop(t any)
	step() bool
	run(until time.Duration)
	runAll()
	state() orderState
}

type orderState struct {
	Now      time.Duration
	Seq      uint64
	Executed uint64
	Pending  int
	NextAt   time.Duration
	HasNext  bool
	Queue    []EventView
}

// realEngine adapts *Engine.
type realEngine struct{ e *Engine }

func (r realEngine) scheduleAt(at time.Duration, label string, fn Handler) any {
	return r.e.ScheduleAt(at, label, fn)
}
func (r realEngine) post(at time.Duration, label string, fn Handler) { r.e.Post(at, label, fn) }
func (r realEngine) cancel(h any)                                    { r.e.Cancel(h.(*Event)) }
func (r realEngine) cancelled(h any) bool                            { return h.(*Event).Cancelled() }
func (r realEngine) every(period time.Duration, label string, fn Handler) any {
	return r.e.Every(period, label, fn)
}
func (r realEngine) stop(t any)              { t.(*Ticker).Stop() }
func (r realEngine) step() bool              { return r.e.Step() }
func (r realEngine) run(until time.Duration) { r.e.Run(until) }
func (r realEngine) runAll()                 { r.e.RunAll() }
func (r realEngine) state() orderState {
	at, ok := r.e.NextAt()
	return orderState{r.e.Now(), r.e.Seq(), r.e.Executed(), r.e.Pending(), at, ok, r.e.Snapshot()}
}

// refEngine is the reference: pending events kept sorted by (at, seq).
type refEngine struct {
	now           time.Duration
	seq, executed uint64
	pending       []*refEvent
}

type refEvent struct {
	at        time.Duration
	seq       uint64
	label     string
	fn        Handler
	cancelled bool
}

type refTicker struct {
	next *refEvent
	done bool
}

func (r *refEngine) scheduleAt(at time.Duration, label string, fn Handler) any {
	if at < r.now {
		panic("reference: schedule in the past")
	}
	ev := &refEvent{at: at, seq: r.seq, label: label, fn: fn}
	r.seq++
	i := sort.Search(len(r.pending), func(i int) bool {
		p := r.pending[i]
		return p.at > at || p.at == at && p.seq > ev.seq
	})
	r.pending = append(r.pending, nil)
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = ev
	return ev
}

func (r *refEngine) post(at time.Duration, label string, fn Handler) { r.scheduleAt(at, label, fn) }

func (r *refEngine) cancel(h any) {
	ev := h.(*refEvent)
	ev.cancelled = true
	for i, p := range r.pending {
		if p == ev {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

func (r *refEngine) cancelled(h any) bool { return h.(*refEvent).cancelled }

// every follows the documented Ticker contract: the first tick one period
// from now, each later tick one period after the previous one ran, and a
// Stop inside the handler lets the current tick finish but schedules no
// more.
func (r *refEngine) every(period time.Duration, label string, fn Handler) any {
	t := &refTicker{}
	var tick Handler
	tick = func(now time.Duration) {
		if t.done {
			return
		}
		fn(now)
		if !t.done {
			t.next = r.scheduleAt(r.now+period, label, tick).(*refEvent)
		}
	}
	t.next = r.scheduleAt(r.now+period, label, tick).(*refEvent)
	return t
}

func (r *refEngine) stop(h any) {
	t := h.(*refTicker)
	t.done = true
	r.cancel(t.next)
}

func (r *refEngine) step() bool {
	if len(r.pending) == 0 {
		return false
	}
	ev := r.pending[0]
	r.pending = r.pending[1:]
	r.now = ev.at
	r.executed++
	ev.fn(r.now)
	return true
}

func (r *refEngine) run(until time.Duration) {
	for len(r.pending) > 0 && r.pending[0].at <= until {
		r.step()
	}
	if until > r.now {
		r.now = until
	}
}

func (r *refEngine) runAll() {
	for r.step() {
	}
}

func (r *refEngine) state() orderState {
	s := orderState{Now: r.now, Seq: r.seq, Executed: r.executed, Pending: len(r.pending), Queue: []EventView{}}
	if len(r.pending) > 0 {
		s.NextAt, s.HasNext = r.pending[0].at, true
	}
	for _, p := range r.pending {
		s.Queue = append(s.Queue, EventView{At: p.at, Label: p.label})
	}
	return s
}

// orderRun is one program's observable history on one engine.
type orderRun struct {
	log    []string     // executed handlers, in order, with their times
	states []orderState // after every operation
}

// driveOrder interprets prog (two bytes per operation) on eng.
func driveOrder(prog []byte, eng orderEngine) orderRun {
	var out orderRun
	var handles, tickers []any
	nextID := 0
	var handler func(id int) Handler
	handler = func(id int) Handler {
		return func(now time.Duration) {
			out.log = append(out.log, fmt.Sprintf("e%d@%v", id, now))
			// Every fourth event posts a child, sometimes at the same
			// instant: scheduling from inside handlers, including
			// recycled-event reuse while the engine is mid-step.
			if id%4 == 0 && nextID < 4096 {
				child := nextID
				nextID++
				eng.post(now+time.Duration(id%7)*time.Millisecond, fmt.Sprintf("c%d", child), handler(child))
			}
		}
	}
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i]%8, prog[i+1]
		now := eng.state().Now
		switch op {
		case 0:
			id := nextID
			nextID++
			handles = append(handles, eng.scheduleAt(now+time.Duration(arg%64)*time.Millisecond, fmt.Sprintf("s%d", id), handler(id)))
		case 1:
			id := nextID
			nextID++
			eng.post(now+time.Duration(arg%64)*time.Millisecond, fmt.Sprintf("p%d", id), handler(id))
		case 2:
			if len(handles) > 0 {
				h := handles[int(arg)%len(handles)]
				eng.cancel(h)
				out.log = append(out.log, fmt.Sprintf("cancelled=%t", eng.cancelled(h)))
			}
		case 3:
			if len(tickers) < 6 {
				k := len(tickers)
				ticks := 0
				limit := 1 + int(arg)%9
				var t any
				t = eng.every(time.Duration(5+arg%64)*time.Millisecond, fmt.Sprintf("t%d", k), func(now time.Duration) {
					ticks++
					out.log = append(out.log, fmt.Sprintf("t%d#%d@%v", k, ticks, now))
					if ticks == limit {
						eng.stop(t) // Stop from inside the handler
					}
				})
				tickers = append(tickers, t)
			}
		case 4:
			if len(tickers) > 0 {
				eng.stop(tickers[int(arg)%len(tickers)])
			}
		case 5, 6:
			eng.run(now + time.Duration(arg)*time.Millisecond)
		case 7:
			out.log = append(out.log, fmt.Sprintf("step=%t", eng.step()))
		}
		out.states = append(out.states, eng.state())
	}
	for _, t := range tickers {
		eng.stop(t)
	}
	eng.runAll()
	out.states = append(out.states, eng.state())
	return out
}

func checkEngineOrder(t *testing.T, prog []byte) {
	t.Helper()
	got := driveOrder(prog, realEngine{NewEngine()})
	want := driveOrder(prog, &refEngine{})
	if !reflect.DeepEqual(got.log, want.log) {
		for i := 0; i < len(got.log) && i < len(want.log); i++ {
			if got.log[i] != want.log[i] {
				t.Fatalf("execution diverges at entry %d: engine %s, reference %s", i, got.log[i], want.log[i])
			}
		}
		t.Fatalf("execution logs differ in length: engine %d, reference %d", len(got.log), len(want.log))
	}
	for i := range want.states {
		if !reflect.DeepEqual(got.states[i], want.states[i]) {
			t.Fatalf("state after operation %d:\nengine    %+v\nreference %+v", i, got.states[i], want.states[i])
		}
	}
}

func TestEngineOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*(20+r.Intn(300)))
		r.Read(prog)
		checkEngineOrder(t, prog)
	}
}

func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 10, 1, 10, 0, 0, 1, 0, 5, 20})
	f.Add([]byte{3, 3, 0, 7, 2, 0, 5, 200, 4, 0, 7, 0})
	f.Add([]byte{0, 5, 5, 10, 2, 0, 2, 0, 1, 0, 7, 0, 7, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			prog = prog[:2048]
		}
		checkEngineOrder(t, prog)
	})
}
