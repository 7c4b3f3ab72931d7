// Package bus provides deterministic in-simulation message passing between
// control-plane components: the network that connects Dynamo agents on TOR
// switches to the distributed controllers (paper §IV-B). Messages are
// delivered through the discrete-event engine with a configurable latency
// model, so ordering is reproducible run-to-run and network delay becomes a
// first-class experimental variable (the ~20 s override settling of Fig 11
// is mostly command execution, but the read/override round trips themselves
// ride this bus).
package bus

import (
	"fmt"
	"time"

	"coordcharge/internal/sim"
)

// Message is one datagram between endpoints.
type Message struct {
	From, To string
	// Kind discriminates the protocol operation ("read", "override", ...).
	Kind string
	// Payload carries the operation's argument or result.
	Payload any

	bus *Bus
	dst *endpoint // resolved from To when the message is dispatched
	// onReply is the requester's callback: set on a request (Reply copies
	// it onto the response) and on the response itself, which delivery
	// hands to it instead of to an endpoint.
	onReply func(now time.Duration, payload any)
	isReply bool
}

// delivery is a message in flight. The message itself is the scheduled
// event: posting it costs no closure, and the engine recycles the event.
type delivery Message

func (d *delivery) Fire(now time.Duration) {
	m := (*Message)(d)
	m.bus.deliver(now, m)
}

// Handler processes a delivered message.
type Handler func(now time.Duration, msg *Message)

// LatencyModel returns the one-way delivery delay between two endpoints.
type LatencyModel func(from, to string) time.Duration

// ConstantLatency returns a LatencyModel with a fixed one-way delay.
func ConstantLatency(d time.Duration) LatencyModel {
	return func(_, _ string) time.Duration { return d }
}

// Bus is the message fabric. Construct with New.
type Bus struct {
	engine  *sim.Engine
	latency LatencyModel
	// endpoints holds a record for every name a message has been addressed
	// to, registered or not; it interns the name's event labels.
	endpoints  map[string]*endpoint
	replyKinds map[string]string // kind → "reply:<kind>", interned
	delivered  uint64
	dropped    uint64
	// DropFilter, when set, discards matching messages (fault injection).
	DropFilter func(msg *Message) bool
	// Perturb, when set, lets a fault injector act on every message —
	// requests, one-way sends, and replies (replies are presented with
	// Kind "reply:<kind>" and swapped From/To). Returning drop discards
	// the message, extra adds delivery delay beyond the latency model,
	// and dup delivers that many additional copies.
	Perturb func(now time.Duration, msg *Message) (drop bool, extra time.Duration, dup int)
}

// New builds a bus over the engine. A nil latency model means instant
// delivery (still engine-ordered).
func New(engine *sim.Engine, latency LatencyModel) *Bus {
	if engine == nil {
		panic(fmt.Errorf("bus: nil engine"))
	}
	if latency == nil {
		latency = ConstantLatency(0)
	}
	return &Bus{
		engine:     engine,
		latency:    latency,
		endpoints:  make(map[string]*endpoint),
		replyKinds: make(map[string]string),
	}
}

// endpoint is a destination name: its handler once registered, and the
// engine labels of the message kinds sent to it.
type endpoint struct {
	name   string
	h      Handler // nil until registered
	labels map[string]string
}

// route returns the record for name, creating it on first use.
func (b *Bus) route(name string) *endpoint {
	ep := b.endpoints[name]
	if ep == nil {
		ep = &endpoint{name: name, labels: make(map[string]string)}
		b.endpoints[name] = ep
	}
	return ep
}

// label returns the engine label of a message of kind to this endpoint.
func (ep *endpoint) label(kind string) string {
	l, ok := ep.labels[kind]
	if !ok {
		l = "bus:" + kind + ":" + ep.name
		ep.labels[kind] = l
	}
	return l
}

// replyKind returns the kind a response to a kind request travels as.
func (b *Bus) replyKind(kind string) string {
	k, ok := b.replyKinds[kind]
	if !ok {
		k = "reply:" + kind
		b.replyKinds[kind] = k
	}
	return k
}

// Register attaches a handler to an endpoint name. Registering a name twice
// panics: endpoint identity is a wiring invariant.
func (b *Bus) Register(name string, h Handler) {
	if ep := b.endpoints[name]; ep != nil && ep.h != nil {
		panic(fmt.Errorf("bus: endpoint %q registered twice", name))
	}
	if h == nil {
		panic(fmt.Errorf("bus: nil handler for %q", name))
	}
	b.route(name).h = h
}

// Delivered and Dropped report traffic counters.
func (b *Bus) Delivered() uint64 { return b.delivered }

// Dropped counts messages (requests, one-way sends and replies) discarded by
// the DropFilter or by a Perturb drop, and messages sent to unknown
// endpoints.
func (b *Bus) Dropped() uint64 { return b.dropped }

// Send dispatches a one-way message; delivery happens after the latency
// model's delay. Messages to unregistered endpoints are counted as dropped
// (a controller may poll an agent that has been decommissioned).
func (b *Bus) Send(from, to, kind string, payload any) {
	b.dispatch(&Message{From: from, To: to, Kind: kind, Payload: payload, bus: b})
}

// Request dispatches a message and routes the response back through the bus
// (paying latency both ways). The responder completes the exchange by
// calling Reply on the delivered message. onReply must be non-nil.
func (b *Bus) Request(from, to, kind string, payload any, onReply func(now time.Duration, payload any)) {
	if onReply == nil {
		panic(fmt.Errorf("bus: nil reply callback for %s request to %s", kind, to))
	}
	b.dispatch(&Message{From: from, To: to, Kind: kind, Payload: payload, bus: b, onReply: onReply})
}

// Reply completes a request/response exchange. Replying to a one-way
// message is a protocol bug and panics.
func (b *Bus) Reply(now time.Duration, msg *Message, payload any) {
	if msg.onReply == nil || msg.isReply {
		panic(fmt.Errorf("bus: reply to one-way %s message from %s", msg.Kind, msg.From))
	}
	// The response travels back with its own delay and is subject to the
	// same fault perturbation as a forward message.
	b.dispatch(&Message{
		From: msg.To, To: msg.From, Kind: b.replyKind(msg.Kind), Payload: payload,
		bus: b, onReply: msg.onReply, isReply: true,
	})
}

// deliver hands a message that has arrived to its endpoint, or a response
// to its requester's callback.
func (b *Bus) deliver(now time.Duration, msg *Message) {
	if msg.isReply {
		msg.onReply(now, msg.Payload)
		return
	}
	h := msg.dst.h
	if h == nil {
		b.dropped++
		return
	}
	b.delivered++
	h(now, msg)
}

// dispatch applies the drop filter and fault perturbation to msg, then
// posts its delivery after the latency model's delay (plus any injected
// extra), once per injected duplicate.
func (b *Bus) dispatch(msg *Message) {
	if b.DropFilter != nil && b.DropFilter(msg) {
		b.dropped++
		return
	}
	var extra time.Duration
	var dup int
	if b.Perturb != nil {
		var drop bool
		drop, extra, dup = b.Perturb(b.engine.Now(), msg)
		if drop {
			b.dropped++
			return
		}
	}
	d := b.latency(msg.From, msg.To) + extra
	msg.dst = b.route(msg.To)
	label := msg.dst.label(msg.Kind)
	for i := 0; i <= dup; i++ {
		b.engine.PostAfter(d, label, (*delivery)(msg))
	}
}
