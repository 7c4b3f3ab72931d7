package coordcharge

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/obs"
	"coordcharge/internal/scenario"
)

// Both control planes run one planning policy. This test pins each plane's
// decision stream on the runs that exercise every branch of that policy —
// the four coordination modes, postponed charges resuming, override
// retries under faults and command latency, storm admission and the grid
// plane on the synchronous plane, and throttle-then-cap on the distributed
// plane — to its flight digest, summary hash and obs counters. Each arm
// also asserts that the branch it exists for fired, so no pin can pass
// vacuously on a run that never reached the code it guards.

// planeArm is one pinned run: how to build it, what it must reproduce, and
// the branch it must exercise.
type planeArm struct {
	name  string
	spec  func(t *testing.T) scenario.CoordSpec
	fired func(t *testing.T, res *scenario.CoordResult, sink *obs.Sink)
}

func syncArm(mode dynamo.Mode, limitKW float64) func(t *testing.T) scenario.CoordSpec {
	return func(t *testing.T) scenario.CoordSpec { return planeSpec(mode, limitKW, false) }
}

func distributedArm(limitKW float64) func(t *testing.T) scenario.CoordSpec {
	return func(t *testing.T) scenario.CoordSpec { return planeSpec(dynamo.ModePriorityAware, limitKW, true) }
}

// flightKinds counts the retained flight events by kind; it fails when the
// ring dropped events, since the count would then be partial.
func flightKinds(t *testing.T, sink *obs.Sink) map[string]int {
	t.Helper()
	if d := sink.Flight.Dropped(); d > 0 {
		t.Fatalf("flight recorder dropped %d events; kinds would be partial", d)
	}
	kinds := map[string]int{}
	for _, e := range sink.Flight.Last(obs.DefaultFlightCap) {
		kinds[e.Kind]++
	}
	return kinds
}

var planeArms = []planeArm{
	{
		name: "sync/none",
		spec: syncArm(dynamo.ModeNone, 190),
		fired: func(t *testing.T, res *scenario.CoordResult, _ *obs.Sink) {
			if m := res.Metrics; m.MaxCapping <= 0 || m.OverridesIssued != 0 || m.ThrottleEvents != 0 {
				t.Errorf("want capping only, got %+v", m)
			}
		},
	},
	{
		name: "sync/global",
		spec: syncArm(dynamo.ModeGlobal, 190),
		fired: func(t *testing.T, res *scenario.CoordResult, _ *obs.Sink) {
			if m := res.Metrics; m.PlansComputed == 0 || m.ThrottleEvents == 0 {
				t.Errorf("want a plan and uniform re-rates, got %+v", m)
			}
		},
	},
	{
		name: "sync/priority-aware",
		spec: syncArm(dynamo.ModePriorityAware, 190),
		fired: func(t *testing.T, res *scenario.CoordResult, _ *obs.Sink) {
			if m := res.Metrics; m.PlansComputed == 0 || m.MaxCapping <= 0 {
				t.Errorf("want a plan and caps, got %+v", m)
			}
		},
	},
	{
		name: "sync/postpone",
		spec: syncArm(dynamo.ModePostpone, 190),
		fired: func(t *testing.T, res *scenario.CoordResult, _ *obs.Sink) {
			if m := res.Metrics; m.PlansComputed == 0 || m.OverridesIssued != 0 {
				t.Errorf("want every charge postponed, got %+v", m)
			}
		},
	},
	{
		name: "sync/postpone-resume",
		spec: syncArm(dynamo.ModePostpone, 210),
		fired: func(t *testing.T, res *scenario.CoordResult, sink *obs.Sink) {
			if n := flightKinds(t, sink)["resume"]; n == 0 {
				t.Error("no postponed charge resumed")
			}
		},
	},
	{
		name: "sync/degraded",
		spec: func(t *testing.T) scenario.CoordSpec {
			spec := planeSpec(dynamo.ModePriorityAware, 190, false)
			spec.Faults = faults.Default()
			// At the default 5% command loss every lost override is
			// superseded by a later throttle before its timeout; at 20%
			// some are not, and the retry path runs.
			spec.Faults.CommandLoss = 0.2
			spec.Retry = dynamo.DefaultRetryPolicy()
			spec.StaleAfter = 10 * time.Second
			spec.CommandLatency = 20 * time.Second
			return spec
		},
		fired: func(t *testing.T, res *scenario.CoordResult, _ *obs.Sink) {
			if m := res.Metrics; m.Retries == 0 || m.StaleTelemetry == 0 {
				t.Errorf("want override retries and stale telemetry, got %+v", m)
			}
		},
	},
	{
		name: "sync/grid",
		spec: func(t *testing.T) scenario.CoordSpec {
			spec, err := scenario.GridShaveSpec(1)
			if err != nil {
				t.Fatal(err)
			}
			return spec
		},
		fired: func(t *testing.T, res *scenario.CoordResult, _ *obs.Sink) {
			if res.Storm.Admitted == 0 || res.Grid.ShaveStarts == 0 {
				t.Errorf("want storm admissions and grid shaving, got storm %+v", res.Storm)
			}
		},
	},
	{
		name: "distributed/priority-aware-190",
		spec: distributedArm(190),
		fired: func(t *testing.T, res *scenario.CoordResult, _ *obs.Sink) {
			if m := res.Metrics; m.PlansComputed == 0 || m.ThrottleEvents == 0 || m.MaxCapping <= 0 {
				t.Errorf("want a plan, throttling and caps, got %+v", m)
			}
		},
	},
	{
		name: "distributed/priority-aware-225",
		spec: distributedArm(225),
		fired: func(t *testing.T, res *scenario.CoordResult, _ *obs.Sink) {
			if m := res.Metrics; m.PlansComputed == 0 || m.ThrottleEvents == 0 {
				t.Errorf("want a plan and throttling, got %+v", m)
			}
		},
	},
}

func runPlaneArm(t *testing.T, arm planeArm) (*scenario.CoordResult, *obs.Sink) {
	t.Helper()
	spec := arm.spec(t)
	spec.Obs = obs.NewSink(0)
	res, err := scenario.RunCoordinated(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, spec.Obs
}

func TestControlPlanesPinned(t *testing.T) {
	for _, arm := range planeArms {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			res, sink := runPlaneArm(t, arm)
			arm.fired(t, res, sink)
			want, ok := planePins[arm.name]
			if !ok {
				t.Fatalf("arm %s has no pin", arm.name)
			}
			if got := sink.Flight.Digest(); got != want.digest {
				t.Errorf("flight digest %s, want %s", got, want.digest)
			}
			sum := sha256.Sum256([]byte(res.Summary()))
			if got := hex.EncodeToString(sum[:]); got != want.summary {
				t.Errorf("summary sha256 %s, want %s\n%s", got, want.summary, res.Summary())
			}
			got := sink.Reg.Snapshot().Counters
			for name, v := range want.counters {
				if got[name] != v {
					t.Errorf("counter %s = %d, want %d", name, got[name], v)
				}
			}
			for name, v := range got {
				if _, ok := want.counters[name]; !ok {
					t.Errorf("unpinned counter %s = %d", name, v)
				}
			}
		})
	}
}

var planePins = map[string]fleetPin{
	"sync/none": {
		digest:  "ce94d8c2b0eccba7",
		summary: "66f78a7223b2db79b6e9a4d6909759413483c09582db3aad38d1c449b1b29924",
		counters: map[string]int64{
			"dynamo.crashes":            0,
			"dynamo.override_abandons":  0,
			"dynamo.override_confirms":  0,
			"dynamo.override_retries":   0,
			"dynamo.overrides":          0,
			"dynamo.plans":              0,
			"dynamo.restarts":           0,
			"dynamo.stale_telemetry":    0,
			"dynamo.throttle_events":    0,
			"rack.failsafe_activations": 0,
		},
	},
	"sync/global": {
		digest:  "b871847c4fa50412",
		summary: "8542973b208d54ffd9a763af99e00561f1354f3d8ba7ff3d9945b1b178b8479b",
		counters: map[string]int64{
			"dynamo.crashes":            0,
			"dynamo.override_abandons":  0,
			"dynamo.override_confirms":  0,
			"dynamo.override_retries":   0,
			"dynamo.overrides":          48969,
			"dynamo.plans":              1,
			"dynamo.restarts":           0,
			"dynamo.stale_telemetry":    0,
			"dynamo.throttle_events":    2580,
			"rack.failsafe_activations": 0,
		},
	},
	"sync/priority-aware": {
		digest:  "8afe9a4a1fd64086",
		summary: "5e724c857c389ac3e41080a81ee367e30a9d62cbcbd31c75c64b4b693a8c38d2",
		counters: map[string]int64{
			"dynamo.crashes":            0,
			"dynamo.override_abandons":  0,
			"dynamo.override_confirms":  0,
			"dynamo.override_retries":   0,
			"dynamo.overrides":          30,
			"dynamo.plans":              1,
			"dynamo.restarts":           0,
			"dynamo.stale_telemetry":    0,
			"dynamo.throttle_events":    0,
			"rack.failsafe_activations": 0,
		},
	},
	"sync/postpone": {
		digest:  "81ea0d12738842d8",
		summary: "b5d1951f7fc8b784aa9bd1b3acd227dd77c89907b8b873ac6911d144f0b6cecc",
		counters: map[string]int64{
			"dynamo.crashes":            0,
			"dynamo.override_abandons":  0,
			"dynamo.override_confirms":  0,
			"dynamo.override_retries":   0,
			"dynamo.overrides":          0,
			"dynamo.plans":              1,
			"dynamo.restarts":           0,
			"dynamo.stale_telemetry":    0,
			"dynamo.throttle_events":    0,
			"rack.failsafe_activations": 0,
		},
	},
	"sync/postpone-resume": {
		digest:  "6944f40f764a1e73",
		summary: "40ef6d3a2929252d980443c7585c12677a6057d095e5c9049c122fd85a8f64bd",
		counters: map[string]int64{
			"dynamo.crashes":            0,
			"dynamo.override_abandons":  0,
			"dynamo.override_confirms":  0,
			"dynamo.override_retries":   0,
			"dynamo.overrides":          30,
			"dynamo.plans":              1,
			"dynamo.restarts":           0,
			"dynamo.stale_telemetry":    0,
			"dynamo.throttle_events":    0,
			"rack.failsafe_activations": 0,
		},
	},
	"sync/degraded": {
		digest:  "c6035eb5e0958691",
		summary: "113aa4cc63364eda1641fd7997f65417de2e5049f71de21499f8c03b39dfb379",
		counters: map[string]int64{
			"dynamo.crashes":             12,
			"dynamo.override_abandons":   0,
			"dynamo.override_confirms":   51,
			"dynamo.override_retries":    3,
			"dynamo.overrides":           386,
			"dynamo.plans":               3,
			"dynamo.restarts":            12,
			"dynamo.stale_telemetry":     340,
			"dynamo.throttle_events":     143,
			"faults.agent_outages":       225,
			"faults.commands_delayed":    10,
			"faults.commands_dropped":    65,
			"faults.commands_duplicated": 4,
			"faults.controller_outages":  89,
			"faults.reads_dropped":       23844,
			"faults.reads_staled":        22975,
			"rack.failsafe_activations":  0,
		},
	},
	"sync/grid": {
		digest:  "7df4c729639a4761",
		summary: "ba88ac33934df716fb19d6492f8be9546201564a76c10785e909d9a0a7df7b24",
		counters: map[string]int64{
			"dynamo.crashes":            0,
			"dynamo.override_abandons":  0,
			"dynamo.override_confirms":  0,
			"dynamo.override_retries":   0,
			"dynamo.overrides":          45,
			"dynamo.plans":              0,
			"dynamo.restarts":           0,
			"dynamo.stale_telemetry":    0,
			"dynamo.throttle_events":    0,
			"grid.cap_sheds":            0,
			"grid.defer_ticks":          200,
			"grid.dr_windows":           1,
			"grid.droop_events":         0,
			"grid.shave_starts":         15,
			"grid.shave_stops":          15,
			"grid.violation_ticks":      0,
			"guard.demoted":             0,
			"guard.fires":               0,
			"guard.it_capped":           0,
			"guard.paused":              0,
			"guard.resumed":             0,
			"rack.failsafe_activations": 0,
			"storm.admitted":            45,
			"storm.enqueued":            45,
			"storm.promotions":          0,
			"storm.storms":              1,
			"storm.waves":               2,
		},
	},
	"distributed/priority-aware-190": {
		digest:  "35b206c774d3b3ea",
		summary: "ff82a780d919c05afde3f77447dd8b709647df8b2ecd0a3508f1cdd3540c4d26",
		counters: map[string]int64{
			"dynamo.crashes":            0,
			"dynamo.override_abandons":  0,
			"dynamo.override_confirms":  0,
			"dynamo.override_retries":   0,
			"dynamo.overrides":          120,
			"dynamo.plans":              1,
			"dynamo.restarts":           0,
			"dynamo.stale_telemetry":    0,
			"dynamo.throttle_events":    1,
			"rack.failsafe_activations": 0,
		},
	},
	"distributed/priority-aware-225": {
		digest:  "ce28885d06ca1487",
		summary: "c8bea12c58d4495dbdf935d62d4e1925385709b62d8af25a0ad8e2accca457cd",
		counters: map[string]int64{
			"dynamo.crashes":            0,
			"dynamo.override_abandons":  0,
			"dynamo.override_confirms":  0,
			"dynamo.override_retries":   0,
			"dynamo.overrides":          66,
			"dynamo.plans":              1,
			"dynamo.restarts":           0,
			"dynamo.stale_telemetry":    0,
			"dynamo.throttle_events":    1,
			"rack.failsafe_activations": 0,
		},
	},
}
