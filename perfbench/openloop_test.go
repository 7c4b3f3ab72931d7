package main

import (
	"testing"
	"time"
)

// Latency counts from the due time, lateness from due to send.
func TestAccountFromDueTime(t *testing.T) {
	var shots []shot
	for i := 0; i < 30; i++ {
		due := time.Duration(i) * 100 * time.Millisecond
		shots = append(shots, shot{Kind: "advise", Index: i, Due: due,
			Sent: due + 5*time.Millisecond, Done: due + 25*time.Millisecond, OK: i != 7})
	}
	st := account(10, shots)
	if st.Sent != 30 || st.Failed != 1 {
		t.Errorf("counts: %+v", st)
	}
	if d := st.Latency["advise"]; d.N != 30 || d.P50 != 25 {
		t.Errorf("latency: %+v", d)
	}
	if st.Late.P50 != 5 || st.LateGrew {
		t.Errorf("lateness: %+v grew=%v", st.Late, st.LateGrew)
	}
	// A generator that falls further behind each request.
	for i := range shots {
		shots[i].Sent = shots[i].Due + time.Duration(i)*20*time.Millisecond
		shots[i].Done = shots[i].Sent + 20*time.Millisecond
	}
	st = account(10, shots)
	if !st.LateGrew {
		t.Errorf("growing lateness not detected: %+v", st.Late)
	}
	if d := st.Latency["advise"]; d.Max != 29*20+20 {
		t.Errorf("latency must include the wait behind the schedule: %+v", d)
	}
}

// The schedule is fixed in advance: when the only connection is busy,
// requests leave late and their latency includes the wait.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	kind := func(int) string { return "k" }
	shots := openLoop(100, 300*time.Millisecond, 1, kind, func(int) bool {
		time.Sleep(25 * time.Millisecond)
		return true
	})
	if len(shots) != 30 {
		t.Fatalf("sent %d requests, want 30", len(shots))
	}
	for i, s := range shots {
		if s.Due != time.Duration(i)*10*time.Millisecond {
			t.Fatalf("request %d due at %v", i, s.Due)
		}
		if s.Sent < s.Due || s.Done < s.Sent+25*time.Millisecond {
			t.Fatalf("request %d: %+v", i, s)
		}
	}
	st := account(100, shots)
	if !st.LateGrew || st.Latency["k"].Max < 400 {
		t.Errorf("overload not visible: %+v", st)
	}

	// Well under capacity the generator stays on time. A single request may
	// still leave late when the host preempts the generator, so only the
	// median lateness is bounded.
	shots = openLoop(50, 400*time.Millisecond, 2, kind, func(int) bool { return true })
	if st := account(50, shots); st.LateGrew || st.Failed != 0 || st.Late.P50 > 5 {
		t.Errorf("idle load judged late: %+v", st)
	}
}
