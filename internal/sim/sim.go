// Package sim provides a small discrete-event simulation kernel: a virtual
// clock, a time-ordered event queue, periodic processes, and run-loop
// control.
//
// The kernel is single-threaded by design. Data-center power events span
// seconds (open transitions) to years (Monte Carlo reliability runs), so a
// sequential event loop with a virtual clock is both simpler and faster than
// wall-clock concurrency, and it keeps every experiment deterministic.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Handler is the unit of simulated work. It runs at its scheduled virtual
// time and may schedule further events.
type Handler func(now time.Duration)

// Event is a scheduled callback, returned by the scheduling methods so the
// caller can cancel it.
type Event struct {
	at        time.Duration
	seq       uint64 // tie-break: FIFO among events at the same instant
	target    Target // a Handler when scheduled by ScheduleAt
	index     int    // heap index, -1 once popped or cancelled
	cancelled bool
	pooled    bool // handle-less: recycled by the engine once it has run
	label     string
}

// Target is an event action carried as data: the engine calls Fire at the
// event's time. Posting a value that already exists (a message, a
// controller's poll generation) costs no closure.
type Target interface {
	Fire(now time.Duration)
}

// Fire runs the handler, so a Handler can be posted as a Target.
func (h Handler) Fire(now time.Duration) { h(now) }

// At returns the virtual time the event is scheduled for.
func (e *Event) At() time.Duration { return e.at }

// Label returns the optional debug label attached to the event.
func (e *Event) Label() string { return e.label }

// Cancelled reports whether the event has been cancelled.
func (e *Event) Cancelled() bool { return e.cancelled }

// before is the queue order: (at, seq), a total order because seq is unique.
func (e *Event) before(o *Event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Engine is the simulation driver: a virtual clock plus a pending-event
// queue. The zero value is not usable; construct with NewEngine.
type Engine struct {
	now    time.Duration
	queue  []*Event // binary min-heap in (at, seq) order
	free   []*Event // run handle-less events, ready for reuse by Post
	seq    uint64
	count  uint64 // events executed
	halted bool
}

// NewEngine returns an engine with its clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// push adds ev to the heap.
func (e *Engine) push(ev *Event) {
	e.queue = append(e.queue, ev)
	e.up(len(e.queue) - 1)
}

// popMin removes and returns the earliest event.
func (e *Engine) popMin() *Event {
	ev := e.queue[0]
	e.remove(0)
	return ev
}

// remove deletes the event at heap index i.
func (e *Engine) remove(i int) {
	q := e.queue
	n := len(q) - 1
	ev := q[i]
	if i != n {
		q[i] = q[n]
	}
	q[n] = nil
	e.queue = q[:n]
	if i != n && !e.down(i) {
		e.up(i)
	}
	ev.index = -1
}

// up sifts the event at j toward the root.
func (e *Engine) up(j int) {
	q := e.queue
	ev := q[j]
	for j > 0 {
		i := (j - 1) / 2
		p := q[i]
		if !ev.before(p) {
			break
		}
		q[j] = p
		p.index = j
		j = i
	}
	q[j] = ev
	ev.index = j
}

// down sifts the event at i0 toward the leaves and reports whether it moved.
func (e *Engine) down(i0 int) bool {
	q := e.queue
	n := len(q)
	ev := q[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = ev
	ev.index = i
	return i > i0
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.count }

// Seq returns the number of events ever scheduled (the schedule-order
// counter). Together with Now and Executed it pins the engine's progress, so
// a checkpoint resume can verify that a deterministic replay reconstructed
// the event timeline exactly.
func (e *Engine) Seq() uint64 { return e.seq }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.queue) }

// NextAt returns the virtual time of the earliest pending event and whether
// one exists (Cancel removes events from the heap, so everything resident is
// live). This is the batched-wakeup primitive: a time-skipping caller peeks
// the next deadline, advances analytically up to it, and lets Run execute
// the batch of events due at that instant.
func (e *Engine) NextAt() (time.Duration, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// EventView is the serializable projection of a pending event: its deadline
// and debug label. Handler closures cannot be serialized, so a checkpoint
// stores views; the resuming run rebuilds the real queue from its own spec
// and verifies the rebuilt deadlines against the stored views.
type EventView struct {
	At    time.Duration `json:"at"`
	Label string        `json:"label"`
}

// Snapshot returns the pending events as views in deterministic execution
// order (at, then schedule seq). It allocates a fresh slice and never
// perturbs the heap.
func (e *Engine) Snapshot() []EventView {
	pending := make([]*Event, len(e.queue))
	copy(pending, e.queue)
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].at != pending[j].at {
			return pending[i].at < pending[j].at
		}
		return pending[i].seq < pending[j].seq
	})
	views := make([]EventView, len(pending))
	for i, ev := range pending {
		views[i] = EventView{At: ev.at, Label: ev.label}
	}
	return views
}

// ErrPast is returned when an event is scheduled before the current virtual
// time.
var ErrPast = errors.New("sim: event scheduled in the past")

// ScheduleAt queues fn to run at absolute virtual time at. Scheduling at the
// current instant is allowed (the event runs after all handlers already
// queued for this instant). It panics if at precedes the clock: that is
// always a modelling bug, never a recoverable condition.
func (e *Engine) ScheduleAt(at time.Duration, label string, fn Handler) *Event {
	if at < e.now {
		panic(fmt.Errorf("%w: at=%v now=%v label=%q", ErrPast, at, e.now, label))
	}
	ev := &Event{at: at, seq: e.seq, target: fn, label: label}
	e.seq++
	e.push(ev)
	return ev
}

// Post queues t to fire at absolute virtual time at, ordered exactly as a
// ScheduleAt call in its place would be (it takes the next seq). It returns
// no handle, so the event cannot be cancelled; in exchange the engine
// recycles the Event once it has run. Like ScheduleAt it panics if at
// precedes the clock.
func (e *Engine) Post(at time.Duration, label string, t Target) {
	if at < e.now {
		panic(fmt.Errorf("%w: at=%v now=%v label=%q", ErrPast, at, e.now, label))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{pooled: true}
	}
	ev.at, ev.seq, ev.target, ev.label = at, e.seq, t, label
	e.seq++
	e.push(ev)
}

// PostAfter queues t to fire d after the current virtual time (see Post).
func (e *Engine) PostAfter(d time.Duration, label string, t Target) {
	e.Post(e.now+d, label, t)
}

// ScheduleAfter queues fn to run d after the current virtual time.
func (e *Engine) ScheduleAfter(d time.Duration, label string, fn Handler) *Event {
	return e.ScheduleAt(e.now+d, label, fn)
}

// Cancel removes ev from the queue if it has not yet run. It is safe to call
// multiple times and on already-run events.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancelled || ev.index < 0 {
		if ev != nil {
			ev.cancelled = true
		}
		return
	}
	ev.cancelled = true
	e.remove(ev.index)
}

// Ticker runs a handler at a fixed period. Cancel it with Stop.
type Ticker struct {
	engine *Engine
	period time.Duration
	fn     Handler
	next   *Event
	done   bool
}

// Every schedules fn to run every period, with the first invocation one
// period from now. Period must be positive.
func (e *Engine) Every(period time.Duration, label string, fn Handler) *Ticker {
	if period <= 0 {
		panic(fmt.Errorf("sim: non-positive ticker period %v (%s)", period, label))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	var tick Handler
	tick = func(now time.Duration) {
		if t.done {
			return
		}
		t.fn(now)
		if !t.done {
			// The tick that just ran is off the queue and nothing else
			// holds it: requeue the same Event, with a fresh seq exactly as
			// ScheduleAfter would assign.
			ev := t.next
			ev.at, ev.seq = e.now+t.period, e.seq
			e.seq++
			e.push(ev)
		}
	}
	t.next = e.ScheduleAfter(period, label, tick)
	return t
}

// Stop cancels future ticks. The current tick, if executing, completes.
func (t *Ticker) Stop() {
	t.done = true
	t.engine.Cancel(t.next)
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.popMin()
	e.now = ev.at
	e.count++
	t := ev.target
	if ev.pooled {
		// Recycle before firing: the target may Post again at once.
		ev.target, ev.label = nil, ""
		e.free = append(e.free, ev)
	}
	t.Fire(e.now)
	return true
}

// Halt stops a Run in progress after the current event completes.
func (e *Engine) Halt() { e.halted = true }

// Run executes events until the clock would pass until or until Halt is
// called, then advances the clock to until. Events scheduled exactly at
// until are executed. Advancing the clock past an empty queue matters:
// callers driving a time-stepped co-simulation rely on ScheduleAfter being
// relative to the stepped clock, not to the last event.
func (e *Engine) Run(until time.Duration) time.Duration {
	e.halted = false
	for !e.halted {
		if len(e.queue) == 0 || e.queue[0].at > until {
			if until > e.now {
				e.now = until
			}
			return e.now
		}
		e.Step()
	}
	return e.now
}

// RunAll executes events until the queue is empty or Halt is called. Use
// only when the event population is known to be finite.
func (e *Engine) RunAll() time.Duration {
	e.halted = false
	for !e.halted && e.Step() {
	}
	return e.now
}
