package scenario

import (
	"fmt"
	"hash/fnv"
	"time"

	"coordcharge/internal/battery"
	"coordcharge/internal/charger"
	"coordcharge/internal/ckpt"
	"coordcharge/internal/core"
	"coordcharge/internal/dynamo"
	"coordcharge/internal/power"
	"coordcharge/internal/rack"
	"coordcharge/internal/reliability"
	"coordcharge/internal/report"
	"coordcharge/internal/trace"
	"coordcharge/internal/units"
)

// EnduranceSpec parameterises a multi-year endurance run: Table I failure
// events replayed at their true hierarchy levels against a live MSB with the
// real coordinated control plane, measuring each rack's *realized*
// availability of redundancy. This quantifies the trade-off the paper states
// qualitatively ("our solution would slow down the battery charging process
// and compromise the redundancy"): coordination that throttles charging
// under a tight power limit shows up here as AOR loss, concentrated on the
// priorities the algorithm deprioritises.
type EnduranceSpec struct {
	// Years is the simulated horizon (default 50; capped at 250 to keep the
	// virtual clock within time.Duration).
	Years float64
	// Seed drives both the failure stream and the trace.
	Seed int64
	// NumP1, NumP2, NumP3 give the rack distribution (default 10/10/10; the
	// trace envelope scales with the population as in CoordSpec).
	NumP1, NumP2, NumP3 int
	// MSBLimit is the breaker limit (default: the population-scaled 2.5 MW
	// equivalent).
	MSBLimit units.Power
	// Mode is the coordination policy.
	Mode dynamo.Mode
	// LocalPolicy is the rack-local charger (default variable).
	LocalPolicy charger.Policy
	// Step is the fine-simulation tick (default 3 s).
	Step time.Duration
	// Checkpoint, when non-empty, writes a crash-safe checkpoint to this
	// path at failure-event boundaries, at least CheckpointEvery of virtual
	// time apart. Event processing is the endurance run's natural atom —
	// between events every battery is full and the clock just jumps — so
	// checkpoints land there rather than mid-transition.
	Checkpoint string
	// CheckpointEvery is the minimum virtual time between checkpoint writes
	// (default 30 days when Checkpoint is set).
	CheckpointEvery time.Duration
	// Resume, when non-empty, restores the run from this checkpoint instead
	// of starting from year zero. The spec must describe the same
	// experiment (verified by fingerprint).
	Resume string
	// Interrupt, when non-nil, is polled at every event boundary; returning
	// true stops the run gracefully — a final checkpoint is written (when
	// Checkpoint is set) and the partial result returns with Interrupted.
	Interrupt func() bool
	// HardStop, when non-nil, is polled at every event boundary with the
	// virtual clock; returning true aborts the run with ErrAborted and no
	// final checkpoint, simulating a SIGKILL for the chaos harness.
	HardStop func(now time.Duration) bool
}

func (s *EnduranceSpec) fillDefaults() error {
	if s.Years == 0 {
		s.Years = 50
	}
	if s.Years < 0 || s.Years > 250 {
		return fmt.Errorf("scenario: endurance years %v out of (0, 250]", s.Years)
	}
	if s.NumP1 == 0 && s.NumP2 == 0 && s.NumP3 == 0 {
		s.NumP1, s.NumP2, s.NumP3 = 10, 10, 10
	}
	if s.NumP1 < 0 || s.NumP2 < 0 || s.NumP3 < 0 {
		return fmt.Errorf("scenario: negative rack count")
	}
	n := s.NumP1 + s.NumP2 + s.NumP3
	if s.MSBLimit == 0 {
		s.MSBLimit = units.Power(2.5e6 * float64(n) / 316)
	}
	if s.MSBLimit < 0 {
		return fmt.Errorf("scenario: negative MSB limit")
	}
	if s.LocalPolicy == nil {
		s.LocalPolicy = charger.Variable{}
	}
	if s.Step == 0 {
		s.Step = 3 * time.Second
	}
	if s.Step <= 0 {
		return fmt.Errorf("scenario: non-positive step")
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("scenario: negative CheckpointEvery")
	}
	if s.CheckpointEvery > 0 && s.Checkpoint == "" {
		return fmt.Errorf("scenario: CheckpointEvery set without Checkpoint")
	}
	if s.Checkpoint != "" && s.CheckpointEvery == 0 {
		s.CheckpointEvery = 30 * 24 * time.Hour
	}
	return nil
}

// EnduranceResult is the outcome of an endurance run.
type EnduranceResult struct {
	Spec EnduranceSpec
	// Events and Outages count the replayed failure events.
	Events, Outages int
	// AOR is the realized availability of redundancy per priority: the
	// fraction of rack-time spent with input power up and batteries full.
	AOR map[rack.Priority]units.Fraction
	// LossHoursPerYear is the per-priority mean loss of redundancy.
	LossHoursPerYear map[rack.Priority]float64
	// Metrics aggregates the control plane's protective actions over the
	// whole horizon.
	Metrics dynamo.Metrics
	// UnservedEnergy is IT energy the batteries could not carry across all
	// replayed outages (packs that ran to full depth of discharge).
	UnservedEnergy units.Energy
	// LoadDropEvents counts rack load drops from battery exhaustion.
	LoadDropEvents int
	// Tripped lists breakers that ended the run tripped (always empty when
	// the control plane does its job).
	Tripped []string
	// Interrupted marks a run stopped early by Spec.Interrupt; the result
	// fields are partial and the checkpoint holds the state to resume from.
	Interrupted bool
}

// enduranceState bundles the run's mutable simulation state plus the fixed
// plumbing the event loop needs. Everything under "mutable" round-trips
// through the checkpoint; the rest is rebuilt from the spec.
type enduranceState struct {
	spec   EnduranceSpec
	racks  []*rack.Rack
	gen    trace.Source
	hier   *dynamo.Hierarchy
	msb    *power.Node
	nodes  []*power.Node // msb walk order, for state export
	sbs    []*power.Node
	rpps   []*power.Node
	events []reliability.Event
	res    *EnduranceResult
	week   time.Duration
	demand []units.Power // one-frame scratch for setDemands

	// mutable
	clock         time.Duration
	unavail       []time.Duration // per rack, index-aligned with racks
	sbIdx, rppIdx int
	eventIdx      int
	nextCkpt      time.Duration
}

// setDemands reads the trace frame at the current clock into every rack.
// The clock folds onto one trace week, so its times rarely repeat and the
// read bypasses the generator's frame memo.
func (st *enduranceState) setDemands() {
	t := st.clock % st.week
	st.demand = trace.Frames(st.gen, st.demand, t, t, st.spec.Step)
	for i, r := range st.racks {
		r.SetDemand(st.demand[i])
	}
}

// tick advances one fine step: demands, rack dynamics, control plane, and
// redundancy accounting.
func (st *enduranceState) tick() {
	st.clock += st.spec.Step
	st.setDemands()
	for _, r := range st.racks {
		r.Step(st.clock, st.spec.Step)
	}
	st.hier.Tick(st.clock)
	for i, r := range st.racks {
		if !r.InputUp() || r.Charging() {
			st.unavail[i] += st.spec.Step
		}
	}
}

// settle fine-simulates until every rack has input power and no battery is
// charging, bounded by a safety horizon.
func (st *enduranceState) settle(maxDur time.Duration) {
	deadline := st.clock + maxDur
	for st.clock < deadline {
		st.tick()
		quiet := true
		for _, r := range st.racks {
			if !r.InputUp() || r.Charging() {
				quiet = false
				break
			}
		}
		if quiet {
			return
		}
	}
}

// jumpTo advances the clock without dynamics (used between events when every
// battery is full).
func (st *enduranceState) jumpTo(t time.Duration) {
	if t > st.clock {
		st.clock = t
	}
}

// scopeFor rotates SB- and RPP-level events across the breakers of that
// level; everything at or above the MSB hits the whole tree. The rotation
// counters are run state: a resume must target the same breakers the
// uninterrupted run would have.
func (st *enduranceState) scopeFor(c reliability.Component) *power.Node {
	switch c.Name {
	case "SB":
		st.sbIdx++
		return st.sbs[st.sbIdx%len(st.sbs)]
	case "RPP":
		st.rppIdx++
		return st.rpps[st.rppIdx%len(st.rpps)]
	default: // Utility, Sub/MSG, MSB
		return st.msb
	}
}

// processEvent replays one Table I failure event against the live fleet.
func (st *enduranceState) processEvent(ev reliability.Event) {
	spec, res := &st.spec, st.res
	hours := func(h float64) time.Duration {
		return time.Duration(h * float64(time.Hour))
	}
	minTrans := func(h float64) time.Duration {
		d := hours(h).Round(spec.Step)
		if d < spec.Step {
			d = spec.Step
		}
		return d
	}
	res.Events++
	scope := st.scopeFor(ev.Component)
	// Overlapping events start no earlier than the clock (rare; the
	// previous event's recovery is still in progress).
	st.jumpTo(hours(ev.StartHours))
	const settleLimit = 6 * time.Hour
	if ev.IsOutage() {
		res.Outages++
		outage := hours(ev.RepairHours)
		if outage < spec.Step {
			outage = spec.Step
		}
		scope.Deenergize(st.clock)
		// No control-plane dynamics while input is out: one bulk step
		// drains the batteries against the IT load (packs that run dry
		// record unserved energy and a load drop), and redundancy is lost
		// for the whole outage on the affected racks.
		st.clock += outage
		st.setDemands()
		for i, r := range st.racks {
			r.Step(st.clock, outage)
			if !r.InputUp() {
				st.unavail[i] += outage
			}
		}
		scope.Reenergize(st.clock)
		st.settle(settleLimit)
		return
	}
	// Failure/maintenance: an open transition now, another at restore.
	for leg := 0; leg < 2; leg++ {
		ot := minTrans(ev.OT1Hours)
		if leg == 1 {
			st.jumpTo(hours(ev.StartHours + ev.RepairHours))
			ot = minTrans(ev.OT2Hours)
		}
		scope.Deenergize(st.clock)
		end := st.clock + ot
		for st.clock < end {
			st.tick()
		}
		scope.Reenergize(st.clock)
		st.settle(settleLimit)
	}
}

// finish aggregates the redundancy accounting into the result.
func (st *enduranceState) finish() {
	spec, res := &st.spec, st.res
	horizon := time.Duration(spec.Years * float64(time.Hour) * 8766)
	counts := map[rack.Priority]int{}
	sums := map[rack.Priority]time.Duration{}
	for i, r := range st.racks {
		counts[r.Priority()]++
		sums[r.Priority()] += st.unavail[i]
	}
	for _, p := range []rack.Priority{rack.P1, rack.P2, rack.P3} {
		if counts[p] == 0 {
			continue
		}
		mean := float64(sums[p]) / float64(counts[p])
		frac := mean / float64(horizon)
		res.AOR[p] = units.Fraction(1 - frac)
		res.LossHoursPerYear[p] = frac * 8766
	}
	res.Metrics = st.hier.TotalMetrics()
	for _, r := range st.racks {
		res.UnservedEnergy += r.UnservedEnergy()
		res.LoadDropEvents += r.LoadDropEvents()
	}
	for _, nd := range st.nodes {
		if nd.Tripped() {
			res.Tripped = append(res.Tripped, nd.Name())
		}
	}
}

// newEnduranceState builds the fleet, hierarchy, and failure stream from a
// spec with defaults filled.
func newEnduranceState(spec EnduranceSpec) (*enduranceState, error) {
	n := spec.NumP1 + spec.NumP2 + spec.NumP3
	scale := float64(n) / 316
	gen, err := trace.NewGenerator(trace.Spec{
		NumRacks:    n,
		Seed:        spec.Seed,
		TroughPower: units.Power(1.9e6 * scale),
		PeakPower:   units.Power(2.1e6 * scale),
	})
	if err != nil {
		return nil, err
	}
	surface := battery.Fig5Surface()
	prio := func(i int) rack.Priority {
		switch {
		case i < spec.NumP1:
			return rack.P1
		case i < spec.NumP1+spec.NumP2:
			return rack.P2
		default:
			return rack.P3
		}
	}
	racks := make([]*rack.Rack, n)
	loads := make([]power.Load, n)
	for i := range racks {
		racks[i] = rack.New(fmt.Sprintf("rack%03d", i), prio(i), spec.LocalPolicy, surface)
		loads[i] = racks[i]
	}
	msb, err := power.Build(power.Spec{Name: "msb", MSBLimit: spec.MSBLimit}, loads)
	if err != nil {
		return nil, err
	}
	msb.Walk(func(nd *power.Node) {
		if nd != msb {
			nd.SetLimit(100 * units.Megawatt)
		}
	})
	hier, err := dynamo.BuildHierarchy(msb, spec.Mode, core.DefaultConfig(), nil, 0)
	if err != nil {
		return nil, err
	}
	relSim, err := reliability.NewSimulator(reliability.TableI(), spec.Seed)
	if err != nil {
		return nil, err
	}
	st := &enduranceState{
		spec:    spec,
		racks:   racks,
		gen:     gen,
		hier:    hier,
		msb:     msb,
		events:  relSim.Events(spec.Years),
		unavail: make([]time.Duration, n),
		week:    7 * 24 * time.Hour,
		res: &EnduranceResult{
			Spec:             spec,
			AOR:              map[rack.Priority]units.Fraction{},
			LossHoursPerYear: map[rack.Priority]float64{},
		},
	}
	msb.Walk(func(nd *power.Node) {
		st.nodes = append(st.nodes, nd)
		switch nd.Level() {
		case power.LevelSB:
			st.sbs = append(st.sbs, nd)
		case power.LevelRPP:
			st.rpps = append(st.rpps, nd)
		}
	})
	st.nextCkpt = spec.CheckpointEvery
	return st, nil
}

// RunEndurance executes the endurance simulation. With Spec.Resume set it
// restores a checkpointed run and continues it from the next failure event.
func RunEndurance(spec EnduranceSpec) (*EnduranceResult, error) {
	if err := spec.fillDefaults(); err != nil {
		return nil, err
	}
	st, err := newEnduranceState(spec)
	if err != nil {
		return nil, err
	}
	if spec.Resume != "" {
		if err := st.restore(spec.Resume); err != nil {
			return nil, err
		}
	}
	for st.eventIdx < len(st.events) {
		if spec.HardStop != nil && spec.HardStop(st.clock) {
			return nil, ErrAborted
		}
		if spec.Interrupt != nil && spec.Interrupt() {
			if spec.Checkpoint != "" {
				if err := st.writeCheckpoint(); err != nil {
					return nil, err
				}
			}
			st.res.Interrupted = true
			return st.res, nil
		}
		st.processEvent(st.events[st.eventIdx])
		st.eventIdx++
		if spec.Checkpoint != "" && st.clock >= st.nextCkpt {
			if err := st.writeCheckpoint(); err != nil {
				return nil, err
			}
			st.nextCkpt = st.clock + spec.CheckpointEvery
		}
	}
	st.finish()
	return st.res, nil
}

// enduranceKind tags endurance checkpoints (see coordKind).
const enduranceKind = "endurance"

// enduranceCheckpoint is the payload inside the ckpt envelope for an
// endurance run: the resume event index plus every piece of mutable state.
// The failure stream itself is regenerated from the seed.
type enduranceCheckpoint struct {
	Kind        string `json:"kind"`
	Fingerprint uint64 `json:"fingerprint"`
	Seed        int64  `json:"seed"`

	EventIdx int             `json:"event_idx"`
	SBIdx    int             `json:"sb_idx"`
	RPPIdx   int             `json:"rpp_idx"`
	Clock    time.Duration   `json:"clock"`
	Unavail  []time.Duration `json:"unavail"`

	Racks []rack.State          `json:"racks"`
	Nodes []power.NodeState     `json:"nodes"`
	Hier  dynamo.HierarchyState `json:"hier"`

	Events  int `json:"events"`
	Outages int `json:"outages"`
}

// enduranceFingerprint hashes the spec fields that shape the simulation plus
// the trace, so a checkpoint refuses to resume a different experiment.
func enduranceFingerprint(spec *EnduranceSpec, gen trace.Source) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "years=%g|seed=%d|p1=%d|p2=%d|p3=%d|limit=%g|mode=%d|policy=%s|step=%d",
		spec.Years, spec.Seed, spec.NumP1, spec.NumP2, spec.NumP3,
		float64(spec.MSBLimit), spec.Mode, spec.LocalPolicy.Name(), spec.Step)
	fmt.Fprintf(h, "|trace=%016x", trace.Fingerprint(gen))
	return h.Sum64()
}

// writeCheckpoint atomically writes the run's checkpoint for a resume at the
// current event boundary.
func (st *enduranceState) writeCheckpoint() error {
	ck := &enduranceCheckpoint{
		Kind:        enduranceKind,
		Fingerprint: enduranceFingerprint(&st.spec, st.gen),
		Seed:        st.spec.Seed,
		EventIdx:    st.eventIdx,
		SBIdx:       st.sbIdx,
		RPPIdx:      st.rppIdx,
		Clock:       st.clock,
		Unavail:     st.unavail,
		Events:      st.res.Events,
		Outages:     st.res.Outages,
	}
	for _, r := range st.racks {
		ck.Racks = append(ck.Racks, r.ExportState())
	}
	for _, nd := range st.nodes {
		ck.Nodes = append(ck.Nodes, nd.ExportState())
	}
	hs, err := st.hier.ExportState()
	if err != nil {
		return fmt.Errorf("scenario: endurance checkpoint export: %w", err)
	}
	ck.Hier = hs
	if err := ckpt.WriteFileRotated(st.spec.Checkpoint, ck); err != nil {
		return fmt.Errorf("scenario: endurance checkpoint write: %w", err)
	}
	return nil
}

// restore loads an endurance checkpoint into a freshly built run.
func (st *enduranceState) restore(path string) error {
	var ck enduranceCheckpoint
	// Fall back to the previous-good cadence write when the latest fails
	// envelope verification; path reports what was actually restored.
	path, err := ckpt.ReadFileFallback(path, &ck)
	if err != nil {
		return err
	}
	if ck.Kind != enduranceKind {
		return fmt.Errorf("scenario: %s is a %q checkpoint, not an endurance checkpoint", path, ck.Kind)
	}
	if ck.Seed != st.spec.Seed {
		return fmt.Errorf("scenario: checkpoint %s was written with seed %d, this run uses seed %d", path, ck.Seed, st.spec.Seed)
	}
	if fp := enduranceFingerprint(&st.spec, st.gen); ck.Fingerprint != fp {
		return fmt.Errorf("scenario: checkpoint %s describes a different experiment (fingerprint %016x, spec is %016x)", path, ck.Fingerprint, fp)
	}
	if ck.EventIdx < 0 || ck.EventIdx > len(st.events) {
		return fmt.Errorf("scenario: checkpoint event index %d outside stream of %d events", ck.EventIdx, len(st.events))
	}
	if len(ck.Racks) != len(st.racks) || len(ck.Unavail) != len(st.racks) {
		return fmt.Errorf("scenario: checkpoint has %d racks (%d accounted), run has %d", len(ck.Racks), len(ck.Unavail), len(st.racks))
	}
	if len(ck.Nodes) != len(st.nodes) {
		return fmt.Errorf("scenario: checkpoint has %d breaker nodes, run has %d", len(ck.Nodes), len(st.nodes))
	}
	for i, s := range ck.Racks {
		if err := st.racks[i].RestoreState(s); err != nil {
			return err
		}
	}
	for i, s := range ck.Nodes {
		if err := st.nodes[i].RestoreState(s); err != nil {
			return err
		}
	}
	if err := st.hier.RestoreState(ck.Hier); err != nil {
		return err
	}
	st.eventIdx = ck.EventIdx
	st.sbIdx = ck.SBIdx
	st.rppIdx = ck.RPPIdx
	st.clock = ck.Clock
	copy(st.unavail, ck.Unavail)
	st.res.Events = ck.Events
	st.res.Outages = ck.Outages
	st.nextCkpt = st.clock + st.spec.CheckpointEvery
	return nil
}

// EnduranceTable renders an endurance result against the paper's Table II
// targets: realized AOR through the coordinated control plane versus the
// idealised per-priority goals.
func EnduranceTable(res *EnduranceResult) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Realized AOR over %.0f simulated years (%s mode, %v limit, %d events)",
			res.Spec.Years, res.Spec.Mode, res.Spec.MSBLimit, res.Events),
		"Priority", "Realized AOR", "Loss (hr/year)", "Table II target")
	targets := map[rack.Priority]string{rack.P1: "99.94%", rack.P2: "99.90%", rack.P3: "99.85%"}
	for _, p := range []rack.Priority{rack.P1, rack.P2, rack.P3} {
		if _, ok := res.AOR[p]; !ok {
			continue
		}
		t.Add(p.String(),
			fmt.Sprintf("%.3f%%", float64(res.AOR[p])*100),
			fmt.Sprintf("%.2f", res.LossHoursPerYear[p]),
			targets[p])
	}
	return t
}
