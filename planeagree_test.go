package coordcharge

import (
	"testing"
	"time"

	"coordcharge/internal/dynamo"
	"coordcharge/internal/obs"
	"coordcharge/internal/scenario"
	"coordcharge/internal/units"
)

// planeSpec is the 30-rack (10/10/10) fleet at medium depth of discharge
// under an MSB limit tight enough that the charging period overloads it:
// the spec the plane-agreement and plane-pin tests share.
func planeSpec(mode dynamo.Mode, limitKW float64, distributed bool) scenario.CoordSpec {
	return scenario.CoordSpec{
		NumP1: 10, NumP2: 10, NumP3: 10,
		AvgDOD:      0.5,
		Seed:        1,
		MSBLimit:    units.Power(limitKW) * units.Kilowatt,
		Mode:        mode,
		Distributed: distributed,
	}
}

// Capping removes server power for as long as the caps hold, on either
// plane: a distributed run that caps must integrate capped energy, like the
// synchronous plane does.
func TestDistributedPlaneIntegratesCappedEnergy(t *testing.T) {
	res, err := scenario.RunCoordinated(planeSpec(dynamo.ModePriorityAware, 190, true))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.MaxCapping <= 0 {
		t.Fatalf("MaxCapping = %v, want the 190 kW spec to cap", m.MaxCapping)
	}
	if m.CappedEnergy <= 0 {
		t.Errorf("CappedEnergy = %v with MaxCapping %v: capped power never integrated", m.CappedEnergy, m.MaxCapping)
	}
}

// planeRun is one coordinated run with the tail of its decision journal
// (whole unless dropped is nonzero) and the last tick at which any rack was
// charging.
type planeRun struct {
	res          *scenario.CoordResult
	events       []obs.Event
	dropped      uint64
	lastCharging time.Duration
}

func runPlane(t *testing.T, mode dynamo.Mode, limitKW float64, distributed bool) planeRun {
	t.Helper()
	spec := planeSpec(mode, limitKW, distributed)
	const flightCap = 1 << 16
	spec.Obs = obs.NewSink(flightCap)
	var charging []*obs.Gauge
	for _, p := range []string{"p1", "p2", "p3"} {
		charging = append(charging, spec.Obs.Gauge("charge.charging."+p))
	}
	var run planeRun
	spec.StepHook = func(now time.Duration) {
		for _, g := range charging {
			if g.Value() > 0 {
				run.lastCharging = now
			}
		}
	}
	res, err := scenario.RunCoordinated(spec)
	if err != nil {
		t.Fatal(err)
	}
	run.res = res
	run.dropped = spec.Obs.Flight.Dropped()
	run.events = spec.Obs.Flight.Last(flightCap)
	return run
}

// eventsOf returns the journaled events of one kind.
func (r planeRun) eventsOf(kind string) []obs.Event {
	var out []obs.Event
	for _, e := range r.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

func (r planeRun) completed() int {
	n := 0
	for _, durs := range r.res.ChargeDurations {
		n += len(durs)
	}
	return n
}

// Both control planes run one planning policy, so each coordination mode
// must behave the same way on either: ModeNone never touches a charger,
// ModeGlobal answers an overload with a uniform re-rate, and ModePostpone
// keeps postponed charges paused until headroom returns.
func TestPlaneAgreesPerMode(t *testing.T) {
	for _, distributed := range []bool{false, true} {
		plane := "sync"
		if distributed {
			plane = "distributed"
		}
		t.Run(plane+"/none", func(t *testing.T) {
			m := runPlane(t, dynamo.ModeNone, 190, distributed).res.Metrics
			if m.OverridesIssued != 0 || m.ThrottleEvents != 0 {
				t.Errorf("ModeNone issued %d overrides and %d throttle events, want none", m.OverridesIssued, m.ThrottleEvents)
			}
			if m.MaxCapping <= 0 {
				t.Error("ModeNone never capped: the overload went unanswered")
			}
		})
		t.Run(plane+"/global", func(t *testing.T) {
			run := runPlane(t, dynamo.ModeGlobal, 190, distributed)
			// The re-rate repeats every evaluation the overload lasts, so
			// the journal's tail holds a run of them.
			throttles := run.eventsOf("throttle")
			if len(throttles) == 0 {
				t.Fatal("ModeGlobal never answered the overload by re-rating")
			}
			for _, e := range throttles {
				if e.Attr["mode"] != "global" {
					t.Fatalf("ModeGlobal throttled at %v with %v, want a uniform re-rate", e.T, e.Attr)
				}
			}
		})
		t.Run(plane+"/postpone", func(t *testing.T) {
			run := runPlane(t, dynamo.ModePostpone, 190, distributed)
			if run.dropped > 0 {
				t.Fatalf("flight recorder dropped %d events", run.dropped)
			}
			plans := run.eventsOf("plan")
			if len(plans) == 0 {
				t.Fatal("no plan")
			}
			// Pauses ride the server-management path: they land within a
			// poll period of the first plan (a rack still reported charging
			// by a leaf's older read is re-planned and re-paused), and at
			// 190 kW headroom never returns.
			if settled := plans[0].T + 2*3*time.Second; run.lastCharging > settled {
				t.Errorf("a rack was still charging at %v, want every postponed charge paused by %v", run.lastCharging, settled)
			}
			if n := run.completed(); n != 0 {
				t.Errorf("%d charges completed, want every charge postponed", n)
			}
			if n := len(run.eventsOf("resume")); n != 0 {
				t.Errorf("%d postponed charges resumed without headroom", n)
			}
		})
		t.Run(plane+"/postpone-resume", func(t *testing.T) {
			run := runPlane(t, dynamo.ModePostpone, 210, distributed)
			if run.dropped > 0 {
				t.Fatalf("flight recorder dropped %d events", run.dropped)
			}
			if len(run.eventsOf("resume")) == 0 {
				t.Error("no postponed charge resumed once headroom returned")
			}
			if n := run.completed(); n != 30 {
				t.Errorf("%d of 30 charges completed", n)
			}
		})
	}
}
