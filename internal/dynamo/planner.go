package dynamo

import (
	"sort"
	"strconv"
	"time"

	"coordcharge/internal/core"
	"coordcharge/internal/grid"
	"coordcharge/internal/obs"
	"coordcharge/internal/power"
	"coordcharge/internal/storm"
	"coordcharge/internal/units"
)

// planner is the control logic of paper §IV-B, written once and embedded by
// every controller — the synchronous Controller, AsyncLeaf and AsyncUpper.
// Each controller is a transport: it reads a slice of per-rack views (direct
// agent reads or polled snapshots), hands them to the planner, and delivers
// the directives that come back (direct rack calls or bus messages). The
// planner makes every decision from those views:
//
//   - stale or missing telemetry is rewritten to the conservative worst case;
//   - charging sequences that began since the last look are detected from
//     usable telemetry and planned (Algorithm 1, the global baseline, or
//     Algorithm 1 with postponement), or paused into the storm admission
//     queue when they arrive as a storm or the grid asks to defer;
//   - the admission queue and postponed charges are restarted under headroom;
//   - on overload, battery charging is throttled first (reverse priority
//     order, or a uniform re-rate in ModeGlobal, or not at all in ModeNone)
//     and servers are capped in priority order only for what remains;
//   - overrides are confirmed against later telemetry, retransmitted, or
//     abandoned.
//
// What genuinely differs between transports enters as an input, not as a
// forked copy of the policy: whether a sent command has landed by the time
// its recovery is counted (the send callbacks' result), the interval capped
// power integrates over, the draw admission budgets against, and whether a
// directive can be lost in flight (inFlight).
type planner struct {
	node       *power.Node
	comp       string // flight-recorder component
	mode       Mode
	cfg        core.Config
	plans      bool
	grid       *grid.Policy // planning controller only
	stormQ     *storm.Queue // planning controller only
	staleAfter time.Duration
	retry      RetryPolicy
	metrics    Metrics
	down       bool

	// inFlight marks a transport whose pauses and grants travel as messages
	// that can be lost: a grant is confirmed against later telemetry (and
	// re-queued when it never lands), and a queued rack seen charging, or a
	// paused one nobody tracks, is reconciled. On the synchronous plane both
	// land on the rack before the next read, so none of that applies.
	inFlight bool
	// every is the transport's evaluation period when it has a fixed one
	// (the async poll period): caps integrate over it and in-flight grants
	// time out after a few of it. Zero on the synchronous plane, whose caps
	// integrate over each tick's own dt.
	every time.Duration
	// msgTally selects the message-passing plane's historical tallies, kept
	// so its pinned runs stay bit-identical: throttle recovery comes off the
	// excess command by command rather than summed first, and
	// MaxCappingFraction divides by the views' IT load summed in capping
	// order rather than by that load in view order plus the applied cut.
	msgTally bool

	// known marks the views that hold a completed read (nil: all of them);
	// slots maps a view index to the rack's stable slot (nil: identity).
	// Both are set by the transport before each evaluation.
	known []bool
	slots []int

	was       []bool                   // last observed charging bit, by slot
	postponed map[int]core.RackInfo    // ModePostpone deferrals by slot; RackInfo.ID is the slot
	resumed   map[int]time.Duration    // grants in flight by slot (inFlight only)
	pending   map[int]*pendingOverride // unconfirmed overrides by slot

	starts []core.RackInfo     // scratch: freshStarts
	active []core.ActiveCharge // scratch: throttle
	order  []int               // scratch: capPlan
	levels []units.Power       // scratch: capPlan

	obsHandles
}

func newPlanner(node *power.Node, comp string, mode Mode, cfg core.Config, plans bool, slots int, s *obs.Sink) planner {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return planner{
		node:       node,
		comp:       comp,
		mode:       mode,
		cfg:        cfg,
		plans:      plans,
		was:        make([]bool, slots),
		postponed:  make(map[int]core.RackInfo),
		resumed:    make(map[int]time.Duration),
		pending:    make(map[int]*pendingOverride),
		obsHandles: newObsHandles(s, node.Name()),
	}
}

// armStorm attaches the admission queue (planning controllers only).
func (p *planner) armStorm(cfg *storm.Config, s *obs.Sink) {
	if cfg == nil || !p.plans {
		return
	}
	p.stormQ = storm.NewQueue(*cfg)
	if s != nil {
		p.stormQ.SetObs(s)
	}
}

// Metrics returns the controller's accumulated protective-action metrics.
func (p *planner) Metrics() Metrics { return p.metrics }

// Down reports whether the controller is currently crashed.
func (p *planner) Down() bool { return p.down }

// StormQueue returns the controller's admission queue, nil unless storm
// admission is armed. Breaker guards attach to it so charges they pause
// re-enter through admission rather than the guards' own quiet-time resume;
// tests and scenarios read its metrics.
func (p *planner) StormQueue() *storm.Queue { return p.stormQ }

func (p *planner) coordinates() bool {
	return p.mode == ModeGlobal || p.mode == ModePriorityAware || p.mode == ModePostpone
}

// effLimit is the feed limit planning, admission and protection enforce at
// now: the breaker limit, tightened to the interconnection cap when the grid
// signal plane is attached.
func (p *planner) effLimit(now time.Duration) units.Power {
	if p.grid != nil {
		return p.grid.EffectiveLimit(now)
	}
	return p.node.Limit()
}

func (p *planner) slot(i int) int {
	if p.slots == nil {
		return i
	}
	return p.slots[i]
}

// fresh reports whether a snapshot is within the staleness bound.
func (p *planner) fresh(s *Snapshot, now time.Duration) bool {
	return p.staleAfter <= 0 || now-s.Taken <= p.staleAfter
}

// usable reports whether view i is a completed read within the staleness
// bound — telemetry the planner may take at face value.
func (p *planner) usable(i int, s *Snapshot, now time.Duration) bool {
	return (p.known == nil || p.known[p.slot(i)]) && p.fresh(s, now)
}

// rewriteStale rewrites, in place, every view that is not usable: the rack is
// assumed energized and charging at the worst-case current, so the
// controller over-protects the breaker rather than under-protects it. It
// returns how many views it rewrote.
func (p *planner) rewriteStale(now time.Duration, views []Snapshot) int {
	stale := 0
	for i := range views {
		s := &views[i]
		if p.usable(i, s, now) {
			continue
		}
		stale++
		p.metrics.StaleTelemetry++
		p.cStale.Inc()
		s.InputUp = true
		s.Charging = true
		s.Setpoint = p.cfg.Surface.MaxCurrent()
		s.Recharge = units.Power(float64(s.Setpoint) * p.cfg.WattsPerAmp)
	}
	return stale
}

// itLoad sums the (capped) server power of the energized views.
func itLoad(views []Snapshot) units.Power {
	var total units.Power
	for i := range views {
		if s := &views[i]; s.InputUp {
			total += s.ITLoad
		}
	}
	return total
}

// viewDraw sums the draw the views put on the breaker: server load plus
// recharge of every energized rack.
func viewDraw(views []Snapshot) units.Power {
	var total units.Power
	for i := range views {
		if s := &views[i]; s.InputUp {
			total += s.ITLoad + s.Recharge
		}
	}
	return total
}

// crash drops the working state a controller process loses when it dies.
// The racks' own pending-DOD bookkeeping survives, and resync rebuilds the
// admission queue and postponed set from it. cancel drops one pending
// override's retry deadline.
func (p *planner) crash(cancel func(*pendingOverride)) {
	p.down = true
	p.metrics.Crashes++
	p.cCrashes.Inc()
	clear(p.was)
	clear(p.postponed)
	clear(p.resumed)
	if p.stormQ != nil {
		p.stormQ.Reset()
	}
	for slot := range p.was { // slot order: deterministic cancellation
		if o := p.pending[slot]; o != nil && cancel != nil {
			cancel(o)
		}
	}
	clear(p.pending)
}

// restart brings a crashed controller back at now.
func (p *planner) restart(now time.Duration) {
	p.down = false
	p.metrics.Restarts++
	p.cRestarts.Inc()
	p.sink.Event(now, p.comp, "restart")
}

// resync rebuilds charge tracking from the first telemetry after a restart
// — racks observed charging are known sequences, not fresh starts — and
// re-enters every charge still owed (a rack-local pending DOD) into the
// admission queue or, in ModePostpone, the postponed set.
func (p *planner) resync(now time.Duration, views []Snapshot) {
	for i := range views {
		s := &views[i]
		slot := p.slot(i)
		if p.known != nil && !p.known[slot] {
			continue
		}
		p.was[slot] = s.Charging
		owed := s.PendingDOD > 0
		if p.inFlight {
			// A stale or charging rack's pending DOD may already be moot.
			owed = owed && !s.Charging && p.fresh(s, now)
		}
		switch {
		case !owed:
		case p.stormQ != nil:
			p.stormQ.Enqueue(now, storm.Request{Name: s.Name, Priority: s.Priority, DOD: s.PendingDOD, Since: s.ChargeStart})
		case p.mode == ModePostpone:
			p.postponed[slot] = core.RackInfo{ID: slot, Name: s.Name, Priority: s.Priority, DOD: s.PendingDOD}
		}
	}
}

// freshStarts finds racks whose charge began since the last look — judged
// from usable telemetry only, so a conservatively assumed stale rack is never
// mistaken for a new charging sequence. The returned slice is scratch, valid
// until the next call; each RackInfo.ID is a view index.
func (p *planner) freshStarts(now time.Duration, views []Snapshot) []core.RackInfo {
	starts := p.starts[:0]
	for i := range views {
		s := &views[i]
		if !p.usable(i, s, now) {
			continue
		}
		slot := p.slot(i)
		if p.inFlight && p.reconcile(now, slot, s) {
			continue
		}
		if s.Charging && !p.was[slot] {
			starts = append(starts, core.RackInfo{ID: i, Name: s.Name, Priority: s.Priority, DOD: s.DOD})
		}
		p.was[slot] = s.Charging
	}
	p.starts = starts
	return starts
}

// reconcile squares in-flight directives with a usable snapshot. A rack with
// a grant in flight is not a fresh start (observed charging confirms the
// grant). A queued rack seen charging restarted its charge locally (or the
// pause was lost): the queued request is superseded and fresh-start
// detection routes the charge back through admission. A paused charge
// nobody tracks — paused by a detached guard, or its enqueue lost to a
// crash — is adopted by the queue. It reports whether the rack is settled.
func (p *planner) reconcile(now time.Duration, slot int, s *Snapshot) bool {
	if _, granted := p.resumed[slot]; granted {
		if s.Charging {
			delete(p.resumed, slot)
			p.was[slot] = true
		}
		return true
	}
	if p.stormQ == nil {
		return false
	}
	if s.Charging && p.stormQ.Contains(s.Name) {
		p.stormQ.Remove(s.Name)
		p.was[slot] = false
	}
	if _, post := p.postponed[slot]; !s.Charging && s.PendingDOD > 0 && !post && !p.stormQ.Contains(s.Name) {
		p.stormQ.Enqueue(now, storm.Request{Name: s.Name, Priority: s.Priority, DOD: s.PendingDOD, Since: s.ChargeStart})
	}
	return false
}

// stormPause decides whether fresh starts are paused into the admission
// queue instead of planned: a recharge storm, a queue already draining, or
// the grid policy deferring while price/carbon is over threshold. On yes the
// starts are no longer tracked as charging, so one whose pause is lost shows
// up fresh again and is re-paused; the transport pauses each and queues it.
func (p *planner) stormPause(now time.Duration, starts []core.RackInfo) bool {
	deferred := p.grid != nil && p.grid.DeferCharging(now)
	if p.stormQ == nil || !(deferred || len(starts) >= p.stormQ.Config().MinRacks || p.stormQ.Len() > 0) {
		return false
	}
	if len(starts) >= p.stormQ.Config().MinRacks {
		p.stormQ.NoteStorm(now)
	}
	if p.sink != nil {
		p.sink.Event(now, p.comp, "storm-pause",
			"starts", strconv.Itoa(len(starts)),
			"deferred", strconv.FormatBool(deferred))
	}
	for _, ri := range starts {
		p.was[p.slot(ri.ID)] = false
	}
	return true
}

// queue enters one paused charge into the admission queue, superseding a
// stale entry for the same rack (a re-outage of an already-queued rack).
func (p *planner) queue(now time.Duration, ri core.RackInfo, dod units.Fraction, since time.Duration) {
	p.stormQ.Remove(ri.Name)
	p.stormQ.Enqueue(now, storm.Request{Name: ri.Name, Priority: ri.Priority, DOD: dod, Since: since})
}

// plan runs the mode's planning algorithm on fresh starts against the
// effective limit's headroom over the views' IT load (recharge power
// excluded — the plan decides it).
func (p *planner) plan(now time.Duration, starts []core.RackInfo, views []Snapshot) []core.Assignment {
	available := p.effLimit(now) - itLoad(views)
	var plan []core.Assignment
	switch p.mode {
	case ModeGlobal:
		plan = core.PlanGlobal(available, starts, p.cfg)
	default:
		cfg := p.cfg
		cfg.AllowPostpone = p.mode == ModePostpone
		plan = core.PlanPriorityAware(available, starts, cfg)
	}
	p.metrics.PlansComputed++
	p.cPlans.Inc()
	if p.sink != nil {
		p.sink.Event(now, p.comp, "plan",
			"starts", strconv.Itoa(len(starts)),
			"available_w", strconv.FormatFloat(float64(available), 'f', 0, 64))
	}
	return plan
}

// postpone records a plan's postponed assignment: the transport stops the
// charge, and the rack's deficit waits for headroom.
func (p *planner) postpone(asg core.Assignment) {
	ri := asg.RackInfo
	ri.ID = p.slot(ri.ID)
	p.postponed[ri.ID] = ri
	p.was[ri.ID] = false
}

// admitting reports whether an admission wave may run at now.
func (p *planner) admitting(now time.Duration) bool {
	// Price/carbon over threshold (or a droop in force) holds the wave; the
	// grid policy's MaxDefer valve bounds how long.
	return p.stormQ != nil && p.stormQ.Len() > 0 && !(p.grid != nil && p.grid.DeferCharging(now))
}

// admit grants the next admission wave under the effective limit's headroom
// over draw, net of the configured reserve. draw is what the transport can
// see of the breaker's load: the measured node power on the synchronous
// plane, the conservative views on the message-passing one (stale racks
// assumed at worst case, so staleness under-admits).
func (p *planner) admit(now time.Duration, draw units.Power) []storm.Grant {
	limit := p.effLimit(now)
	return p.stormQ.Admit(now, limit-draw-p.stormQ.Config().Margin(limit), p.cfg)
}

// granted records a charge grant (admission or postponed restart) to a slot.
func (p *planner) granted(now time.Duration, slot int) {
	if p.inFlight {
		p.resumed[slot] = now
	} else {
		p.was[slot] = true
	}
	p.metrics.OverridesIssued++
	p.cOverrides.Inc()
}

// confirmGrants reconciles in-flight grants against usable telemetry: a rack
// seen charging confirms its grant; one still paused after several periods
// lost it and goes back to wait with its own pending DOD (zero means the
// pause itself never landed, and fresh-start detection owns the rack again).
func (p *planner) confirmGrants(now time.Duration, views []Snapshot) {
	if len(p.resumed) == 0 {
		return
	}
	for i := range views {
		s := &views[i]
		slot := p.slot(i)
		t, granted := p.resumed[slot]
		if !granted || !p.usable(i, s, now) {
			continue
		}
		switch {
		case s.Charging:
			delete(p.resumed, slot)
			p.was[slot] = true
		case now-t > 4*p.every:
			delete(p.resumed, slot)
			switch {
			case s.PendingDOD <= 0:
			case p.stormQ != nil:
				p.stormQ.Enqueue(now, storm.Request{Name: s.Name, Priority: s.Priority, DOD: s.PendingDOD, Since: s.ChargeStart})
			default:
				p.postponed[slot] = core.RackInfo{ID: slot, Name: s.Name, Priority: s.Priority, DOD: s.PendingDOD}
			}
		}
	}
}

// resumePostponed restarts postponed charges, highest priority and lowest
// DOD first, while headroom covers their floor power (§IV-A future work,
// ModePostpone only). resume delivers one restart at the granted current.
func (p *planner) resumePostponed(now time.Duration, headroom units.Power, resume func(slot int, amps units.Current)) {
	if p.mode != ModePostpone {
		return
	}
	floor := units.Power(float64(p.cfg.Surface.MinCurrent()) * p.cfg.WattsPerAmp)
	waiting := make([]core.RackInfo, 0, len(p.postponed))
	for _, ri := range p.postponed {
		waiting = append(waiting, ri)
	}
	sort.Slice(waiting, func(i, j int) bool {
		a, b := waiting[i], waiting[j]
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		if a.DOD != b.DOD {
			return a.DOD < b.DOD
		}
		return a.ID < b.ID
	})
	for _, ri := range waiting {
		if headroom < floor {
			break
		}
		want, _ := p.cfg.SLACurrent(ri.Priority, ri.DOD)
		grant := p.cfg.Surface.MinCurrent()
		if units.Power(float64(want)*p.cfg.WattsPerAmp) <= headroom {
			grant = want
		}
		resume(ri.ID, grant)
		headroom -= units.Power(float64(grant) * p.cfg.WattsPerAmp)
		p.granted(now, ri.ID)
		if p.sink != nil {
			p.sink.Event(now, p.comp, "resume",
				"rack", ri.Name, "amps", strconv.Itoa(int(grant)))
		}
		delete(p.postponed, ri.ID)
	}
}

// protect handles an instantaneous overload of the effective limit, judged
// from the draw the views would put on the breaker with every cap released
// (caps are recomputed from scratch each evaluation). Battery charging is
// throttled first — reverse priority order in the priority-aware modes, a
// uniform re-rate in ModeGlobal, not at all in ModeNone — and what throttling
// cannot recover is returned as the server power to cap. overloaded is false
// when the transport should release its caps. send delivers one override
// to view i and reports whether it has landed by now.
func (p *planner) protect(now time.Duration, views []Snapshot, send func(i int, amps units.Current) bool) (needed units.Power, overloaded bool) {
	var draw units.Power
	for i := range views {
		if s := &views[i]; s.InputUp {
			draw += s.Demand + s.Recharge
		}
	}
	excess := draw - p.effLimit(now)
	if excess <= 0 {
		return 0, false
	}
	switch p.mode {
	case ModePriorityAware, ModePostpone:
		excess = p.throttle(now, views, excess, send)
	case ModeGlobal:
		excess -= p.rerate(now, views, send)
	}
	if excess < 0 {
		excess = 0
	}
	return excess, true
}

// throttle sets charging currents to the minimum in reverse order until the
// projected recovery covers excess; it returns the excess left. Only commands
// that landed against usable telemetry count: one still settling (or lost,
// or aimed at a rack whose setpoint is only assumed) has recovered nothing
// yet, and Dynamo caps on the overload it measures now, releasing the caps
// once the throttle lands.
func (p *planner) throttle(now time.Duration, views []Snapshot, excess units.Power, send func(int, units.Current) bool) units.Power {
	active := p.active[:0]
	for i := range views {
		if s := &views[i]; s.InputUp && s.Charging {
			active = append(active, core.ActiveCharge{
				RackInfo: core.RackInfo{ID: i, Name: s.Name, Priority: s.Priority, DOD: s.DOD},
				Current:  s.Setpoint,
			})
		}
	}
	p.active = active
	ids := core.ThrottleToMinimum(excess, active, p.cfg)
	if len(ids) == 0 {
		return excess
	}
	p.metrics.ThrottleEvents++
	p.cThrottles.Inc()
	if p.sink != nil {
		p.sink.Event(now, p.comp, "throttle",
			"sheds", strconv.Itoa(len(ids)),
			"excess_w", strconv.FormatFloat(float64(excess), 'f', 0, 64))
	}
	min := p.cfg.Surface.MinCurrent()
	var recovered units.Power
	for _, id := range ids {
		if s := &views[id]; send(id, min) && p.usable(id, s, now) {
			r := units.Power(float64(s.Setpoint-min) * p.cfg.WattsPerAmp)
			if p.msgTally {
				excess -= r
			} else {
				recovered += r
			}
		}
	}
	return excess - recovered
}

// rerate recomputes the uniform rate from present available power and
// applies it to every charging rack — the global baseline's only overload
// response short of capping. It returns the projected recovery.
func (p *planner) rerate(now time.Duration, views []Snapshot, send func(int, units.Current) bool) units.Power {
	var charging []core.RackInfo
	var before units.Power
	for i := range views {
		if s := &views[i]; s.InputUp && s.Charging {
			charging = append(charging, core.RackInfo{ID: i, Name: s.Name, Priority: s.Priority, DOD: s.DOD})
			before += s.Recharge
		}
	}
	if len(charging) == 0 {
		return 0
	}
	available := p.effLimit(now) - itLoad(views)
	plan := core.PlanGlobal(available, charging, p.cfg)
	var after units.Power
	for _, asg := range plan {
		send(asg.ID, asg.Current)
		after += asg.RechargePower(p.cfg.WattsPerAmp)
	}
	p.metrics.ThrottleEvents++
	p.cThrottles.Inc()
	if p.sink != nil {
		p.sink.Event(now, p.comp, "throttle",
			"sheds", strconv.Itoa(len(plan)),
			"mode", "global")
	}
	if after >= before {
		return 0
	}
	return before - after
}

// capPlan distributes a required server power reduction across the
// energized views, lowest priority first (Dynamo caps "according to
// priority of services running on those servers"), and records the Table
// III metrics with capped energy integrated over interval. order lists every
// view index in capping order; the first cut entries are capped — levels[k]
// is entry k's cap, meaningful for energized views only — and the rest are
// released. Capping rides Dynamo's server-management path, not the charger
// command path, so it applies even when the agent link is faulty.
func (p *planner) capPlan(now time.Duration, views []Snapshot, needed units.Power, interval time.Duration) (order []int, levels []units.Power, cut int) {
	order = p.order[:0]
	for i := range views {
		order = append(order, i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return views[order[i]].Priority > views[order[j]].Priority
	})
	levels = append(p.levels[:0], make([]units.Power, len(order))...)
	p.order, p.levels = order, levels
	var applied units.Power
	remaining := needed
	cut = len(order)
	for k, i := range order {
		if remaining <= 0 {
			cut = k
			break
		}
		s := &views[i]
		if !s.InputUp {
			continue
		}
		c := s.Demand
		if c > remaining {
			c = remaining
		}
		levels[k] = s.Demand - c
		applied += c
		remaining -= c
	}
	if applied > 0 && p.sink != nil {
		p.sink.Event(now, p.comp, "cap",
			"applied_w", strconv.FormatFloat(float64(applied), 'f', 0, 64))
	}
	if applied > p.metrics.MaxCapping {
		p.metrics.MaxCapping = applied
		var base units.Power
		if p.msgTally {
			for _, i := range order {
				if s := &views[i]; s.InputUp {
					base += s.ITLoad
				}
			}
		} else {
			base = itLoad(views) + applied
		}
		if base > 0 {
			p.metrics.MaxCappingFraction = units.Fraction(float64(applied) / float64(base))
		}
	}
	if interval > 0 {
		p.metrics.CappedEnergy += units.EnergyOver(applied, interval)
	}
	return order, levels, cut
}

// issue records an override the transport just sent to slot: it counts and
// journals it and, with retries enabled, tracks it until telemetry confirms
// the setpoint. It returns the new entry to arm and the one it supersedes.
func (p *planner) issue(now time.Duration, slot int, name string, want units.Current) (arm, old *pendingOverride) {
	p.metrics.OverridesIssued++
	p.cOverrides.Inc()
	if p.sink != nil {
		p.sink.Event(now, p.comp, "override", "rack", name, "amps", strconv.Itoa(int(want)))
	}
	if !p.retry.enabled() {
		return nil, nil
	}
	old = p.pending[slot]
	arm = &pendingOverride{want: want, attempts: 1, issuedAt: now}
	p.pending[slot] = arm
	return arm, old
}

// resolve settles one pending override at its deadline. It is confirmed by
// telemetry s (nil when none) taken after the command had settle to take
// effect — a rack that stopped charging resolves it as moot — abandoned after
// MaxAttempts sends, and otherwise due for retransmission, which resolve
// reports so the transport resends and re-arms it.
func (p *planner) resolve(now time.Duration, slot int, o *pendingOverride, s *Snapshot, settle time.Duration, name string) bool {
	if s != nil && s.Taken > o.issuedAt+settle && (!s.Charging || s.Setpoint == o.want) {
		delete(p.pending, slot)
		p.cConfirms.Inc()
		wait := (now - o.issuedAt).Seconds()
		p.hConfirm.Observe(wait)
		if p.sink != nil {
			p.sink.Event(now, p.comp, "confirm",
				"rack", name, "wait_s", strconv.FormatFloat(wait, 'f', 1, 64))
		}
		return false
	}
	if o.attempts >= p.retry.maxAttempts() {
		delete(p.pending, slot)
		p.metrics.AbandonedOverrides++
		p.cAbandons.Inc()
		p.sink.Event(now, p.comp, "abandon", "rack", name)
		return false
	}
	o.attempts++
	p.metrics.Retries++
	p.cRetries.Inc()
	if p.sink != nil {
		p.sink.Event(now, p.comp, "retry", "rack", name, "attempt", strconv.Itoa(o.attempts))
	}
	o.issuedAt = now
	return true
}
