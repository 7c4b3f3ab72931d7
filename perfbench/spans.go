package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a module of the program:
// its name, its interval relative to the tracer's start, the span that
// caused it (0 for none) and the run it belongs to.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent int, fn func(id int)) time.Duration {
	start := time.Now()
	id := t.begin(name, parent)
	fn(id)
	t.end(id)
	return time.Since(start)
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of the closed spans named name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.closed() {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// write dumps the closed spans as JSON lines, each with its self time.
func (t *tracer) write(path string) error {
	spans := t.closed()
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			span
			SelfNS time.Duration `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes maps each span ID to its self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap each
// other (parallel work) and may outlive their parent; only the union of
// their intervals clipped to the parent counts.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the intervals of kids, clipped to
// [from, to].
func covered(from, to time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, from), min(k.End, to)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum time.Duration
	var cur iv
	open := false
	for _, x := range ivs {
		switch {
		case !open:
			cur, open = x, true
		case x.a <= cur.b:
			cur.b = max(cur.b, x.b)
		default:
			sum += cur.b - cur.a
			cur = x
		}
	}
	if open {
		sum += cur.b - cur.a
	}
	return sum
}
