package dynamo

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"coordcharge/internal/bus"
	"coordcharge/internal/charger"
	"coordcharge/internal/core"
	"coordcharge/internal/faults"
	"coordcharge/internal/grid"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/sim"
	"coordcharge/internal/storm"
	"coordcharge/internal/units"
)

// This file implements the distributed variant of the control plane: the
// paper's actual deployment shape, where agents on TOR switches and the
// controllers mirroring the power hierarchy are separate processes
// exchanging messages over the network (§IV-B). The synchronous Controller
// in dynamo.go runs the same planner (planner.go) with direct reads —
// convenient for large parameter sweeps; this variant makes polling
// cadence, network latency, and message loss first-class, and upper-level
// controllers communicate exclusively through leaf controllers, as in
// production.
//
// Protocol, all over internal/bus:
//
//	controller → agent   "read"        → reply Snapshot
//	controller → agent   "override"    (units.Current; one-way)
//	controller → agent   "cap"         (CapRequest; one-way)
//	controller → agent   "uncap"       (source string; one-way)
//	controller → agent   "heartbeat"   (one-way watchdog keepalive)
//	controller → agent   "postpone"    (pause a charge; one-way)
//	controller → agent   "resume"      (units.Current admission grant; one-way)
//	upper → leaf         "aggregate"   → reply AggregateReply (snapshots)
//	upper → leaf         "setcurrents" (map[string]units.Current; one-way)
//	upper → leaf         "caps"        (map[string]units.Power; one-way)
//	upper → leaf         "uncaps"      ([]string; one-way)
//	upper → leaf         "pausecharges"  ([]string; one-way)
//	upper → leaf         "resumecharges" (map[string]units.Current; one-way)
//
// Degraded modes: a poll generation no longer waits forever for lost
// replies — it evaluates at a deadline from whatever telemetry arrived, with
// entries past the staleness bound handled conservatively; leaf controllers
// own override confirmation and retransmission (including overrides
// forwarded from upper controllers); and controllers crash and restart on
// the fault injector's schedule, resynchronising their charge-tracking state
// from the first completed poll.

// Snapshot is an agent's rack-state report.
type Snapshot struct {
	// Taken is the virtual time the snapshot was read from the rack;
	// controllers compare it against their staleness bound to detect lost
	// or delayed telemetry.
	Taken    time.Duration
	Name     string
	Priority rack.Priority
	Demand   units.Power
	ITLoad   units.Power
	Recharge units.Power
	DOD      units.Fraction
	// PendingDOD is the deficit of a postponed charge, kept rack-local so a
	// restarted controller can reconstruct its postponed set.
	PendingDOD units.Fraction
	Charging   bool
	InputUp    bool
	Setpoint   units.Current
	// ChargeStart is the virtual time the rack's current charge episode
	// began; admission grants size charging currents against the SLA time
	// already spent since it.
	ChargeStart time.Duration
}

// CapRequest asks an agent to cap its rack's servers on behalf of a
// controller.
type CapRequest struct {
	Source string
	Level  units.Power
}

// AggregateReply is a leaf controller's answer to an upper controller: the
// latest per-rack snapshots under its breaker.
type AggregateReply struct {
	Racks []Snapshot
}

// AsyncOptions carries the degraded-mode knobs of the message-driven
// controllers.
type AsyncOptions struct {
	// Injector, when non-nil, drives the controller's crash schedule
	// (components "leaf/<node>" and "ctl/<node>").
	Injector *faults.Injector
	// StaleAfter is the telemetry freshness bound: snapshots older than
	// this are handled conservatively. Zero means telemetry never goes
	// stale (the pre-fault behaviour).
	StaleAfter time.Duration
	// Retry is the leaf's override retransmission policy (zero disables
	// retries). Its Timeout should exceed the agents' command settling plus
	// a poll round trip, so confirming telemetry has time to arrive.
	Retry RetryPolicy
	// Heartbeat emits a per-generation keepalive to every agent, feeding
	// the racks' fail-safe watchdogs.
	Heartbeat bool
	// Storm arms recharge-storm admission control. Only the planning upper
	// controller acts on it (leaves forward its pause/resume directives);
	// the option is ignored elsewhere.
	Storm *storm.Config
	// Grid attaches the grid signal plane to the planning upper controller:
	// planning, admission, and protection budgets derive from the effective
	// feed limit (min of breaker limit and interconnection cap), and fresh
	// starts defer into the admission queue while the policy says
	// price/carbon is over threshold. Ignored on leaves — the
	// interconnection cap constrains the site feed, not RPP breakers.
	Grid *grid.Policy
	// Obs attaches an observability sink: protective actions are counted
	// under dynamo.* metrics and control decisions are journaled to the
	// flight recorder. Nil disables instrumentation at zero cost.
	Obs *obs.Sink
}

// AsyncAgent is the message-driven per-rack request handler.
type AsyncAgent struct {
	name        string
	settleLabel string
	r           *rack.Rack
	b           *bus.Bus
	engine      *sim.Engine
	settle      time.Duration
	inj         *faults.Injector
}

// AgentEndpoint returns the bus endpoint name for a rack.
func AgentEndpoint(rackName string) string { return "agent/" + rackName }

// NewAsyncAgent registers a rack's agent on the bus. settle is the charger's
// command-settling time (the ~20 s of Fig 11), applied after the override
// message is delivered.
func NewAsyncAgent(b *bus.Bus, engine *sim.Engine, r *rack.Rack, settle time.Duration) *AsyncAgent {
	a := &AsyncAgent{name: AgentEndpoint(r.Name()), r: r, b: b, engine: engine, settle: settle}
	a.settleLabel = "settle:" + a.name
	b.Register(a.name, a.handle)
	return a
}

// SetFaults attaches a fault injector; while the injector schedules the
// agent's component down, delivered messages are silently discarded
// (requests time out, commands vanish).
func (a *AsyncAgent) SetFaults(inj *faults.Injector) { a.inj = inj }

func (a *AsyncAgent) handle(now time.Duration, msg *bus.Message) {
	if a.inj != nil && !a.inj.Up(a.name, now) {
		return
	}
	switch msg.Kind {
	case "read":
		a.b.Reply(now, msg, snapshotRack(a.r, now))
	case "override":
		i := msg.Payload.(units.Current)
		if a.settle <= 0 {
			a.r.ControllerContact(now)
			a.r.OverrideCurrent(i)
			return
		}
		a.engine.PostAfter(a.settle, a.settleLabel, sim.Handler(func(at time.Duration) {
			a.r.ControllerContact(at)
			a.r.OverrideCurrent(i)
		}))
	case "heartbeat":
		a.r.ControllerContact(now)
	case "cap":
		req := msg.Payload.(CapRequest)
		a.r.Cap(req.Source, req.Level)
	case "uncap":
		a.r.Uncap(msg.Payload.(string))
	case "postpone":
		// Storm pause. Like capping this rides the server-management plane:
		// it takes effect on delivery, not after the charger's command
		// settling — a pause that settled lazily would defeat its purpose.
		// Duplicates are harmless (Postpone is a no-op while not charging).
		a.r.ControllerContact(now)
		a.r.Postpone()
	case "resume":
		// Storm admission grant; immediate for the same reason, and contact
		// is recorded first so a watchdogged rack does not fail-safe the
		// instant a long-queued charge restarts. Duplicates are harmless
		// (ResumeCharge is a no-op with nothing pending).
		a.r.ControllerContact(now)
		a.r.ResumeCharge(msg.Payload.(units.Current))
	default:
		panic(fmt.Errorf("dynamo: agent %s received unknown message kind %q", a.name, msg.Kind))
	}
}

// AsyncLeaf is the message-driven leaf controller: it protects one RPP by
// polling its agents, optionally plans charging sequences, and executes
// current/cap directives from upper-level controllers. The leaf owns
// override delivery: commands it sends (its own and those forwarded by upper
// controllers) are confirmed against subsequent telemetry and retransmitted
// per its RetryPolicy.
type AsyncLeaf struct {
	planner

	name   string
	b      *bus.Bus
	engine *sim.Engine
	// A rack's slot is its position in construction order: agents[slot] is
	// its endpoint, names[slot] its name, and cache[slot] its last snapshot,
	// valid while have[slot]. index maps a rack name to its slot and order
	// lists the slots in rack-name order, both fixed at construction, so
	// reading the cache in name order needs no sort.
	agents  []string
	names   []string
	index   map[string]int
	order   []int
	cache   []Snapshot
	have    []bool
	nhave   int
	evalBuf []Snapshot // evaluate's working view, reused across generations
	slotBuf []int      // the slot of each evalBuf entry

	// Event labels and message payloads fixed per leaf, built once.
	deadlineLabel string
	uncapSrc      any // this leaf as the source of its own uncaps
	upperSrc      string
	upperUncapSrc any // the upper controller's caps, forwarded

	inj       *faults.Injector
	heartbeat bool
	evalAfter time.Duration
	gen       uint64
	resyncing bool
}

// evalFraction is the fraction of the poll period after which an incomplete
// poll generation evaluates anyway from the telemetry that did arrive: lost
// replies then degrade decisions instead of stalling the controller forever.
const evalFraction = 0.8

// LeafEndpoint returns the bus endpoint name for a leaf controller.
func LeafEndpoint(nodeName string) string { return "leaf/" + nodeName }

// NewAsyncLeaf registers a leaf controller polling the given agents every
// poll period. plans selects whether this controller computes initial
// charging plans (true for a standalone row; false when an upper controller
// owns planning).
func NewAsyncLeaf(b *bus.Bus, engine *sim.Engine, node *power.Node, agentRacks []*rack.Rack, mode Mode, cfg core.Config, plans bool, poll time.Duration) *AsyncLeaf {
	return NewAsyncLeafOpts(b, engine, node, agentRacks, mode, cfg, plans, poll, AsyncOptions{})
}

// NewAsyncLeafOpts is NewAsyncLeaf with degraded-mode options.
func NewAsyncLeafOpts(b *bus.Bus, engine *sim.Engine, node *power.Node, agentRacks []*rack.Rack, mode Mode, cfg core.Config, plans bool, poll time.Duration, opts AsyncOptions) *AsyncLeaf {
	name := LeafEndpoint(node.Name())
	l := &AsyncLeaf{
		planner:   newPlanner(node, name, mode, cfg, plans, len(agentRacks), opts.Obs),
		name:      name,
		b:         b,
		engine:    engine,
		index:     make(map[string]int, len(agentRacks)),
		cache:     make([]Snapshot, len(agentRacks)),
		have:      make([]bool, len(agentRacks)),
		inj:       opts.Injector,
		heartbeat: opts.Heartbeat,
		evalAfter: time.Duration(evalFraction * float64(poll)),
	}
	l.staleAfter = opts.StaleAfter
	l.retry = opts.Retry
	l.inFlight = true
	l.every = poll
	l.msgTally = true
	l.deadlineLabel = "deadline:" + l.name
	l.uncapSrc = l.name
	l.upperSrc = l.name + "/upper"
	l.upperUncapSrc = l.upperSrc
	for i, r := range agentRacks {
		l.agents = append(l.agents, AgentEndpoint(r.Name()))
		l.names = append(l.names, r.Name())
		if _, dup := l.index[r.Name()]; !dup {
			l.index[r.Name()] = i
			l.order = append(l.order, i)
		}
	}
	sort.Slice(l.order, func(i, j int) bool {
		return agentRacks[l.order[i]].Name() < agentRacks[l.order[j]].Name()
	})
	b.Register(l.name, l.handle)
	engine.Every(poll, "poll:"+l.name, l.poll)
	return l
}

func (l *AsyncLeaf) crash() {
	l.planner.crash(func(o *pendingOverride) { l.engine.Cancel(o.ev) })
	clear(l.have)
	l.nhave = 0
}

// poll requests fresh snapshots from every agent. The generation evaluates
// when the last reply arrives, or — should replies be lost — at the
// evaluation deadline, from whatever telemetry did arrive.
func (l *AsyncLeaf) poll(now time.Duration) {
	up := !l.down
	if l.inj != nil {
		up = l.inj.Up(l.name, now)
	}
	if !up {
		if !l.down {
			l.crash()
		}
		return
	}
	if l.down {
		// Restart with empty state; the first completed generation rebuilds
		// the charge-tracking state from telemetry before planning resumes.
		l.restart(now)
		l.resyncing = true
	}
	l.gen++
	g := &leafGen{l: l, gen: l.gen, pending: len(l.agents)}
	onReply := g.reply
	for _, ep := range l.agents {
		l.b.Request(l.name, ep, "read", nil, onReply)
	}
	l.engine.PostAfter(l.evalAfter, l.deadlineLabel, g)
}

// leafGen is one poll generation of a leaf: its reply callback counts the
// replies still outstanding, and it is itself the generation's evaluation
// deadline event.
type leafGen struct {
	l         *AsyncLeaf
	gen       uint64
	pending   int
	evaluated bool
}

func (g *leafGen) reply(now time.Duration, payload any) {
	g.l.record(payload.(Snapshot))
	g.pending--
	if g.pending == 0 {
		g.Fire(now)
	}
}

// Fire evaluates the generation, once, unless a newer generation has
// started or the leaf has crashed since.
func (g *leafGen) Fire(now time.Duration) {
	l := g.l
	if g.evaluated || l.gen != g.gen || l.down {
		return
	}
	g.evaluated = true
	l.evaluate(now)
}

// record caches a snapshot. A delayed duplicate must not overwrite newer
// telemetry.
func (l *AsyncLeaf) record(snap Snapshot) {
	i, ok := l.index[snap.Name]
	if !ok {
		panic(fmt.Errorf("dynamo: leaf %s received telemetry for unpolled rack %q", l.name, snap.Name))
	}
	if !l.have[i] {
		l.have[i] = true
		l.nhave++
	} else if snap.Taken < l.cache[i].Taken {
		return
	}
	l.cache[i] = snap
}

// endpoint returns a rack's agent endpoint, built once for polled racks.
func (l *AsyncLeaf) endpoint(rackName string) string {
	if i, ok := l.index[rackName]; ok {
		return l.agents[i]
	}
	return AgentEndpoint(rackName)
}

// appendSnapshots appends the raw cache to dst in deterministic (name)
// order, timestamps intact (upper controllers apply their own staleness
// policy).
func (l *AsyncLeaf) appendSnapshots(dst []Snapshot) []Snapshot {
	for _, i := range l.order {
		if l.have[i] {
			dst = append(dst, l.cache[i])
		}
	}
	return dst
}

// evaluate runs the planner over the poll generation. A generation that just
// planned skips protection: the plan's overrides are still in flight and the
// cached setpoints are stale; the next poll sees their effect (plan, then
// monitor — the paper's sequencing).
func (l *AsyncLeaf) evaluate(now time.Duration) {
	// Nothing downstream keeps the views past this call, so they reuse one
	// buffer.
	views := l.appendSnapshots(l.evalBuf[:0])
	slots := l.slotBuf[:0]
	for _, i := range l.order {
		if l.have[i] {
			slots = append(slots, i)
		}
	}
	l.evalBuf, l.slotBuf, l.slots = views, slots, slots
	l.rewriteStale(now, views)
	l.gHeadroom.Set(float64(l.node.Headroom()))
	planned := false
	if l.resyncing {
		l.resync(now, views)
		l.resyncing = false
	} else if l.plans && l.coordinates() {
		planned = l.planStarts(now, views)
	}
	if !planned {
		l.protect(now, views)
		l.confirmGrants(now, views)
		if len(l.postponed) > 0 {
			l.resumePostponed(now, l.effLimit(now)-viewDraw(views), func(slot int, amps units.Current) {
				l.b.Send(l.name, l.agents[slot], "resume", amps)
			})
		}
	}
	if l.heartbeat {
		for _, ep := range l.agents {
			l.b.Send(l.name, ep, "heartbeat", nil)
		}
	}
}

// sendOverride issues an override to the rack in slot and has the planner
// track it until the cache confirms the setpoint. The planned current is
// clamped to the hardware's settable range up front so confirmation compares
// telemetry against the value the charger can actually report.
func (l *AsyncLeaf) sendOverride(now time.Duration, slot int, want units.Current) {
	want = charger.ClampOverride(want)
	l.b.Send(l.name, l.agents[slot], "override", want)
	arm, old := l.issue(now, slot, l.names[slot], want)
	if old != nil {
		l.engine.Cancel(old.ev)
	}
	if arm != nil {
		l.armPending(slot, arm)
	}
}

func (l *AsyncLeaf) armPending(slot int, p *pendingOverride) {
	p.ev = l.engine.ScheduleAfter(l.retry.attemptTimeout(p.attempts), "retry:"+l.name+"/"+l.names[slot], func(at time.Duration) {
		l.checkPendingOne(at, slot, p)
	})
}

func (l *AsyncLeaf) checkPendingOne(now time.Duration, slot int, p *pendingOverride) {
	if l.down || l.pending[slot] != p {
		return
	}
	var s *Snapshot
	if l.have[slot] {
		s = &l.cache[slot]
	}
	if l.resolve(now, slot, p, s, 0, l.names[slot]) {
		l.b.Send(l.name, l.agents[slot], "override", p.want)
		l.armPending(slot, p)
	}
}

// planStarts plans charging sequences that began since the previous poll
// from this breaker's available power. It reports whether a plan was issued.
func (l *AsyncLeaf) planStarts(now time.Duration, views []Snapshot) bool {
	starts := l.freshStarts(now, views)
	if len(starts) == 0 {
		return false
	}
	for _, asg := range l.plan(now, starts, views) {
		slot := l.slots[asg.ID]
		switch {
		case asg.DOD <= 0:
		case asg.Postponed:
			l.b.Send(l.name, l.agents[slot], "postpone", nil)
			l.postpone(asg)
		default:
			l.sendOverride(now, slot, asg.Current)
		}
	}
	return true
}

// protect runs the planner's overload response from cached state: throttle
// overrides count against the excess once sent to a rack with usable
// telemetry, and caps integrate over the poll period.
func (l *AsyncLeaf) protect(now time.Duration, views []Snapshot) {
	needed, overloaded := l.planner.protect(now, views, func(i int, amps units.Current) bool {
		l.sendOverride(now, l.slots[i], amps)
		return true
	})
	if !overloaded {
		for _, slot := range l.slots {
			l.b.Send(l.name, l.agents[slot], "uncap", l.uncapSrc)
		}
		return
	}
	if needed <= 0 {
		return
	}
	order, levels, cut := l.capPlan(now, views, needed, l.every)
	for k, i := range order {
		ep := l.agents[l.slots[i]]
		switch {
		case k >= cut:
			l.b.Send(l.name, ep, "uncap", l.uncapSrc)
		case views[i].InputUp:
			l.b.Send(l.name, ep, "cap", CapRequest{Source: l.name, Level: levels[k]})
		}
	}
}

// handle serves upper-controller requests. A crashed leaf serves nothing:
// requests go unanswered (the upper's evaluation deadline copes) and
// directives vanish, as they would with a dead process.
func (l *AsyncLeaf) handle(now time.Duration, msg *bus.Message) {
	if l.inj != nil && !l.inj.Up(l.name, now) {
		if !l.down {
			l.crash()
		}
		return
	}
	if l.down {
		return
	}
	switch msg.Kind {
	case "aggregate":
		// The upper keeps the reply, so it gets a slice of its own.
		l.b.Reply(now, msg, AggregateReply{Racks: l.appendSnapshots(make([]Snapshot, 0, l.nhave))})
	case "setcurrents":
		currents := msg.Payload.(map[string]units.Current)
		for _, name := range sortedKeys(currents) {
			if slot, ok := l.index[name]; ok {
				l.sendOverride(now, slot, currents[name])
			}
		}
	case "caps":
		caps := msg.Payload.(map[string]units.Power)
		for _, name := range sortedKeys(caps) {
			l.b.Send(l.name, l.endpoint(name), "cap", CapRequest{Source: l.upperSrc, Level: caps[name]})
		}
	case "uncaps":
		for _, name := range msg.Payload.([]string) {
			l.b.Send(l.name, l.endpoint(name), "uncap", l.upperUncapSrc)
		}
	case "pausecharges":
		for _, name := range msg.Payload.([]string) {
			l.b.Send(l.name, l.endpoint(name), "postpone", nil)
			slot, ok := l.index[name]
			if !ok {
				continue
			}
			// A pending override for a rack being paused is moot; cancel it
			// rather than let retries race the pause.
			if p := l.pending[slot]; p != nil {
				l.engine.Cancel(p.ev)
				delete(l.pending, slot)
			}
			l.was[slot] = false
		}
	case "resumecharges":
		currents := msg.Payload.(map[string]units.Current)
		for _, name := range sortedKeys(currents) {
			l.b.Send(l.name, l.endpoint(name), "resume", currents[name])
		}
	default:
		panic(fmt.Errorf("dynamo: leaf %s received unknown message kind %q", l.name, msg.Kind))
	}
}

// sortedKeys returns a map's keys in sorted order: message emission must be
// deterministic or fault-injection draws (and event ordering) would vary
// run-to-run with Go's map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// byLeaf groups an upper controller's per-rack directives by the leaf they
// are forwarded through.
type byLeaf[V any] map[string]map[string]V

func (m byLeaf[V]) add(leaf, rackName string, v V) {
	if m[leaf] == nil {
		m[leaf] = map[string]V{}
	}
	m[leaf][rackName] = v
}

// send forwards each leaf's batch as one kind message, leaves in name order.
func (m byLeaf[V]) send(u *AsyncUpper, kind string) {
	for _, leaf := range sortedKeys(m) {
		u.b.Send(u.name, leaf, kind, m[leaf])
	}
}

// AsyncUpper is the message-driven upper-level controller (SB or MSB): it
// aggregates exclusively through leaf controllers, plans charging sequences
// at the hierarchy root, and directs leaves to throttle or cap on overload.
// Override delivery (confirmation and retries) is owned by the leaves it
// forwards through.
type AsyncUpper struct {
	planner

	name   string
	b      *bus.Bus
	engine *sim.Engine
	leaves []string // leaf endpoints, in construction order

	// A rack's slot is its rank in name order across every leaf, fixed at
	// construction: snap[slot] is its latest aggregated snapshot, valid
	// while have[slot]; leafOf[slot] is the leaf that owns it, and
	// leafSlots[k] lists leaf k's slots in name order. A leaf's reply
	// replaces all of that leaf's entries, so a rack drops out of the view
	// when its leaf stops reporting it.
	slotOf    map[string]int
	leafOf    []string
	leafSlots [][]int
	snap      []Snapshot
	have      []bool

	inj       *faults.Injector
	evalAfter time.Duration
	gen       uint64
	resyncing bool

	deadlineLabel string
	evalBuf       []Snapshot // evaluate's flattened view, reused across generations
	slotBuf       []int      // the slot of each evalBuf entry
}

// UpperEndpoint returns the bus endpoint name for an upper controller.
func UpperEndpoint(nodeName string) string { return "ctl/" + nodeName }

// NewAsyncUpper registers an upper controller polling the given leaf
// controllers every poll period.
func NewAsyncUpper(b *bus.Bus, engine *sim.Engine, node *power.Node, leaves []*AsyncLeaf, mode Mode, cfg core.Config, poll time.Duration) *AsyncUpper {
	return NewAsyncUpperOpts(b, engine, node, leaves, mode, cfg, poll, AsyncOptions{})
}

// NewAsyncUpperOpts is NewAsyncUpper with degraded-mode options (Retry and
// Heartbeat are leaf concerns and ignored here).
func NewAsyncUpperOpts(b *bus.Bus, engine *sim.Engine, node *power.Node, leaves []*AsyncLeaf, mode Mode, cfg core.Config, poll time.Duration, opts AsyncOptions) *AsyncUpper {
	name := UpperEndpoint(node.Name())
	type owned struct {
		rack string
		leaf int
	}
	var racks []owned
	for k, l := range leaves {
		for _, i := range l.order {
			racks = append(racks, owned{l.names[i], k})
		}
	}
	sort.Slice(racks, func(i, j int) bool { return racks[i].rack < racks[j].rack })
	u := &AsyncUpper{
		planner:   newPlanner(node, name, mode, cfg, true, len(racks), opts.Obs),
		name:      name,
		b:         b,
		engine:    engine,
		slotOf:    make(map[string]int, len(racks)),
		leafSlots: make([][]int, len(leaves)),
		snap:      make([]Snapshot, len(racks)),
		have:      make([]bool, len(racks)),
		inj:       opts.Injector,
		evalAfter: time.Duration(evalFraction * float64(poll)),
	}
	u.staleAfter = opts.StaleAfter
	u.inFlight = true
	u.every = poll
	u.msgTally = true
	u.grid = opts.Grid
	u.armStorm(opts.Storm, opts.Obs)
	u.deadlineLabel = "deadline:" + u.name
	for _, l := range leaves {
		u.leaves = append(u.leaves, l.name)
	}
	for slot, r := range racks {
		u.slotOf[r.rack] = slot
		u.leafOf = append(u.leafOf, u.leaves[r.leaf])
		u.leafSlots[r.leaf] = append(u.leafSlots[r.leaf], slot)
	}
	b.Register(u.name, func(now time.Duration, msg *bus.Message) {
		panic(fmt.Errorf("dynamo: upper %s received unexpected %q", u.name, msg.Kind))
	})
	engine.Every(poll, "poll:"+u.name, u.poll)
	return u
}

func (u *AsyncUpper) crash() {
	u.planner.crash(nil)
	clear(u.have)
}

func (u *AsyncUpper) poll(now time.Duration) {
	up := !u.down
	if u.inj != nil {
		up = u.inj.Up(u.name, now)
	}
	if !up {
		if !u.down {
			u.crash()
		}
		return
	}
	if u.down {
		u.restart(now)
		u.resyncing = true
	}
	u.gen++
	g := &upperGen{u: u, gen: u.gen, pending: len(u.leaves)}
	for k, ep := range u.leaves {
		k := k
		u.b.Request(u.name, ep, "aggregate", nil, func(now time.Duration, payload any) {
			u.record(k, payload.(AggregateReply).Racks)
			g.pending--
			if g.pending == 0 {
				g.Fire(now)
			}
		})
	}
	u.engine.PostAfter(u.evalAfter, u.deadlineLabel, g)
}

// record replaces leaf k's entries in the aggregate with its latest report.
func (u *AsyncUpper) record(k int, racks []Snapshot) {
	for _, slot := range u.leafSlots[k] {
		u.have[slot] = false
	}
	for _, s := range racks {
		if slot, ok := u.slotOf[s.Name]; ok {
			u.snap[slot] = s
			u.have[slot] = true
		}
	}
}

// upperGen is one poll generation of an upper controller, and its
// evaluation deadline event.
type upperGen struct {
	u         *AsyncUpper
	gen       uint64
	pending   int
	evaluated bool
}

// Fire evaluates the generation, once, unless a newer generation has
// started or the controller has crashed since.
func (g *upperGen) Fire(now time.Duration) {
	u := g.u
	if g.evaluated || u.gen != g.gen || u.down {
		return
	}
	g.evaluated = true
	u.evaluate(now)
}

// evaluate runs the planner over the aggregated view, in rack-name order. A
// crashed or unreachable leaf leaves its racks' snapshots aging in the
// aggregate; the planner assumes them at worst case once stale. A
// generation that planned (or paused a storm) defers protection and
// admission to the next poll: the directives are in flight and cached
// setpoints are stale.
func (u *AsyncUpper) evaluate(now time.Duration) {
	views, slots := u.evalBuf[:0], u.slotBuf[:0]
	for slot, ok := range u.have {
		if ok {
			views = append(views, u.snap[slot])
			slots = append(slots, slot)
		}
	}
	u.evalBuf, u.slotBuf, u.slots = views, slots, slots
	stale := u.rewriteStale(now, views)
	if u.sink != nil {
		u.gHeadroom.Set(float64(u.node.Headroom()))
		// One telemetry summary per evaluation generation (per-rack events
		// would flood the flight recorder at fleet scale).
		u.sink.Event(now, u.name, "telemetry",
			"fresh", strconv.Itoa(len(views)-stale),
			"stale", strconv.Itoa(stale),
			"headroom_w", strconv.FormatFloat(float64(u.node.Headroom()), 'f', 0, 64))
	}
	if u.resyncing {
		u.resync(now, views)
		u.resyncing = false
	} else if u.coordinates() && u.planStarts(now, views) {
		return
	}
	u.protect(now, views)
	u.confirmGrants(now, views)
	if u.admitting(now) {
		resumes := byLeaf[units.Current]{}
		for _, g := range u.admit(now, viewDraw(views)) {
			slot, ok := u.slotOf[g.Name]
			if !ok || !u.have[slot] {
				// Unroutable (the owning leaf's reply never arrived this
				// generation): requeue rather than lose the charge.
				u.stormQ.Enqueue(now, g.Request)
				continue
			}
			resumes.add(u.leafOf[slot], g.Name, g.Current)
			u.granted(now, slot)
		}
		resumes.send(u, "resumecharges")
	}
	if len(u.postponed) > 0 {
		resumes := byLeaf[units.Current]{}
		u.resumePostponed(now, u.effLimit(now)-viewDraw(views), func(slot int, amps units.Current) {
			resumes.add(u.leafOf[slot], u.snap[slot].Name, amps)
		})
		resumes.send(u, "resumecharges")
	}
}

// planStarts pauses or plans the charging sequences that began since the
// previous generation, forwarding the directives through the owning leaves.
// It reports whether anything was paused or planned.
func (u *AsyncUpper) planStarts(now time.Duration, views []Snapshot) bool {
	starts := u.freshStarts(now, views)
	if len(starts) == 0 {
		return false
	}
	pauses := map[string][]string{}
	if u.stormPause(now, starts) {
		// The racks keep charging until the pause lands.
		for _, ri := range starts {
			s := &views[ri.ID]
			u.queue(now, ri, s.DOD, s.ChargeStart)
			leaf := u.leafOf[u.slots[ri.ID]]
			pauses[leaf] = append(pauses[leaf], ri.Name)
		}
		u.sendPauses(pauses)
		return true
	}
	currents := byLeaf[units.Current]{}
	for _, asg := range u.plan(now, starts, views) {
		leaf := u.leafOf[u.slots[asg.ID]]
		switch {
		case asg.DOD <= 0:
		case asg.Postponed:
			pauses[leaf] = append(pauses[leaf], asg.Name)
			u.postpone(asg)
		default:
			currents.add(leaf, asg.Name, asg.Current)
			u.metrics.OverridesIssued++
			u.cOverrides.Inc()
		}
	}
	currents.send(u, "setcurrents")
	u.sendPauses(pauses)
	return true
}

func (u *AsyncUpper) sendPauses(pauses map[string][]string) {
	for _, leaf := range sortedKeys(pauses) {
		u.b.Send(u.name, leaf, "pausecharges", pauses[leaf])
	}
}

// protect runs the planner's overload response, delegating throttling and
// capping to the leaves; caps integrate over the poll period.
func (u *AsyncUpper) protect(now time.Duration, views []Snapshot) {
	currents := byLeaf[units.Current]{}
	needed, overloaded := u.planner.protect(now, views, func(i int, amps units.Current) bool {
		currents.add(u.leafOf[u.slots[i]], views[i].Name, amps)
		u.metrics.OverridesIssued++
		u.cOverrides.Inc()
		return true
	})
	if !overloaded {
		for k, ep := range u.leaves {
			var names []string
			if n := len(u.leafSlots[k]); n > 0 {
				names = make([]string, 0, n)
			}
			for _, slot := range u.leafSlots[k] {
				if u.have[slot] {
					names = append(names, u.snap[slot].Name)
				}
			}
			u.b.Send(u.name, ep, "uncaps", names)
		}
		return
	}
	currents.send(u, "setcurrents")
	if needed <= 0 {
		return
	}
	order, levels, cut := u.capPlan(now, views, needed, u.every)
	caps := byLeaf[units.Power]{}
	for k, i := range order[:cut] {
		if views[i].InputUp {
			caps.add(u.leafOf[u.slots[i]], views[i].Name, levels[k])
		}
	}
	caps.send(u, "caps")
}

// WireBusFaults attaches injector-driven perturbation to the bus carrying
// the async control plane: telemetry messages ("read"/"aggregate" requests
// and all replies) are subject to read loss; command messages (overrides,
// caps, heartbeats, leaf directives) are subject to command loss, delay, and
// duplication.
func WireBusFaults(b *bus.Bus, inj *faults.Injector) {
	b.Perturb = func(now time.Duration, msg *bus.Message) (bool, time.Duration, int) {
		telemetry := msg.Kind == "read" || msg.Kind == "aggregate" ||
			len(msg.Kind) > 6 && msg.Kind[:6] == "reply:"
		if telemetry {
			if inj.DropRead() {
				return true, 0, 0
			}
			return false, 0, 0
		}
		if inj.DropCommand() {
			return true, 0, 0
		}
		dup := 0
		if inj.DupCommand() {
			dup = 1
		}
		return false, inj.CommandDelay(), dup
	}
}
