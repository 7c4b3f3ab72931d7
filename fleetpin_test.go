package coordcharge

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"coordcharge/internal/dynamo"
	"coordcharge/internal/faults"
	"coordcharge/internal/obs"
	"coordcharge/internal/scenario"
)

// The distributed control plane is bit-exact by construction: every bus
// message, poll, deadline and retry is an engine event ordered by (at, seq),
// and every fault-injector draw happens in that order. A rewrite of the
// engine, the bus or the async controllers that reorders a single schedule
// or draw changes the run, so this test pins the operator's fleet shape —
// the grid peak-shave fleet on the distributed plane with default faults and
// the degraded-mode machinery armed — to its flight digest, summary hash and
// obs counters.

// fleetPin is what one pinned run must reproduce.
type fleetPin struct {
	digest   string
	summary  string // sha256 of Summary()
	counters map[string]int64
}

var fleetPins = map[int64]fleetPin{
	1: {
		digest:  "ddedf876b18af8e2",
		summary: "fdf8c4174366e84f85bf3500205801d064d6d812b738aed7892c16cd5d0bf2b8",
		counters: map[string]int64{
			"dynamo.crashes":             43,
			"dynamo.override_abandons":   0,
			"dynamo.override_confirms":   2,
			"dynamo.override_retries":    1,
			"dynamo.overrides":           50,
			"dynamo.plans":               1,
			"dynamo.restarts":            43,
			"dynamo.stale_telemetry":     15816,
			"dynamo.throttle_events":     0,
			"faults.agent_outages":       241,
			"faults.commands_delayed":    57968,
			"faults.commands_dropped":    61118,
			"faults.commands_duplicated": 23384,
			"faults.controller_outages":  52,
			"faults.reads_dropped":       63391,
			"faults.reads_staled":        0,
			"grid.cap_sheds":             0,
			"grid.defer_ticks":           200,
			"grid.dr_windows":            1,
			"grid.droop_events":          0,
			"grid.shave_starts":          15,
			"grid.shave_stops":           15,
			"grid.violation_ticks":       0,
			"guard.demoted":              0,
			"guard.fires":                0,
			"guard.it_capped":            0,
			"guard.paused":               0,
			"guard.resumed":              0,
			"rack.failsafe_activations":  0,
			"storm.admitted":             46,
			"storm.enqueued":             121,
			"storm.promotions":           0,
			"storm.storms":               5,
			"storm.waves":                4,
		},
	},
	2: {
		digest:  "fab272823da9f282",
		summary: "be390dfdf8247cafe5b1b1d1e3fd4fea546fbf48e6cecd4d20140a1f02e7e9af",
		counters: map[string]int64{
			"dynamo.crashes":             49,
			"dynamo.override_abandons":   0,
			"dynamo.override_confirms":   1,
			"dynamo.override_retries":    0,
			"dynamo.overrides":           42,
			"dynamo.plans":               1,
			"dynamo.restarts":            49,
			"dynamo.stale_telemetry":     18018,
			"dynamo.throttle_events":     0,
			"faults.agent_outages":       281,
			"faults.commands_delayed":    66362,
			"faults.commands_dropped":    70298,
			"faults.commands_duplicated": 26757,
			"faults.controller_outages":  60,
			"faults.reads_dropped":       72549,
			"faults.reads_staled":        0,
			"grid.cap_sheds":             0,
			"grid.defer_ticks":           200,
			"grid.dr_windows":            1,
			"grid.droop_events":          0,
			"grid.shave_starts":          9,
			"grid.shave_stops":           9,
			"grid.violation_ticks":       0,
			"guard.demoted":              0,
			"guard.fires":                0,
			"guard.it_capped":            0,
			"guard.paused":               0,
			"guard.resumed":              0,
			"rack.failsafe_activations":  0,
			"storm.admitted":             40,
			"storm.enqueued":             100,
			"storm.promotions":           0,
			"storm.storms":               3,
			"storm.waves":                3,
		},
	},
}

func fleetPinSpec(t *testing.T, seed int64) scenario.CoordSpec {
	t.Helper()
	spec, err := scenario.GridShaveSpec(seed)
	if err != nil {
		t.Fatal(err)
	}
	spec.Distributed = true
	spec.Faults = faults.Default()
	spec.StaleAfter = 10 * time.Second
	spec.Retry = dynamo.DefaultRetryPolicy()
	return spec
}

func TestDistributedPlanePinned(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := fleetPinSpec(t, seed)
			spec.Obs = obs.NewSink(0)
			res, err := scenario.RunCoordinated(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := fleetPins[seed]
			if got := spec.Obs.Flight.Digest(); got != want.digest {
				t.Errorf("flight digest %s, want %s", got, want.digest)
			}
			sum := sha256.Sum256([]byte(res.Summary()))
			if got := hex.EncodeToString(sum[:]); got != want.summary {
				t.Errorf("summary sha256 %s, want %s\n%s", got, want.summary, res.Summary())
			}
			got := spec.Obs.Reg.Snapshot().Counters
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
