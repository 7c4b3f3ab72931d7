package main

import (
	"sync"
	"time"
)

// shot is one request of an open-loop schedule. Times are relative to the
// schedule's start: Due is when the schedule said to send it, Sent when a
// connection actually took it, Done when its response was complete.
type shot struct {
	Kind  string
	Index int
	Due   time.Duration
	Sent  time.Duration
	Done  time.Duration
	OK    bool // served with the expected status and body
}

// latency is measured from when the request was due, so a stall also counts
// against every request queued behind it.
func (s shot) latency() time.Duration { return s.Done - s.Due }

// late is how far behind the schedule the request left the generator.
func (s shot) late() time.Duration { return s.Sent - s.Due }

// openLoop sends requests at a fixed rate for dur, whatever the responses
// do: request i is due at i/rate. It uses at most conns concurrent
// connections; while all are busy the schedule falls behind and the lateness
// shows in Sent. kind names request i; do sends it and reports whether it
// succeeded. openLoop returns once every request sent has completed, in
// schedule order.
func openLoop(rate float64, dur time.Duration, conns int, kind func(i int) string, do func(i int) bool) []shot {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	shots := make([]shot, n)
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				shots[i].Sent = time.Since(start)
				shots[i].OK = do(i)
				shots[i].Done = time.Since(start)
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		shots[i] = shot{Kind: kind(i), Index: i, Due: due}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return shots
}

// loadStats is the accounting of one open-loop phase.
type loadStats struct {
	Sent     int
	Failed   int
	Late     dist            // generator lateness, ms
	Latency  map[string]dist // per request kind, ms from due time
	LateGrew bool
}

// account summarises shots sent at rate. Lateness grows when the median
// lateness of the last third of the schedule exceeds that of the first third
// by more than one request interval: the generator is not keeping up.
func account(rate float64, shots []shot) loadStats {
	st := loadStats{Sent: len(shots), Latency: map[string]dist{}}
	lat := map[string][]float64{}
	late := make([]float64, len(shots))
	for i, s := range shots {
		if !s.OK {
			st.Failed++
		}
		late[i] = ms(s.late())
		lat[s.Kind] = append(lat[s.Kind], ms(s.latency()))
	}
	st.Late = summarize(late)
	for k, xs := range lat {
		st.Latency[k] = summarize(xs)
	}
	if third := len(late) / 3; third > 0 {
		first, last := median(late[:third]), median(late[len(late)-third:])
		st.LateGrew = last-first > 1000/rate
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
