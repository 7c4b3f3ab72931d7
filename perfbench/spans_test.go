package main

import (
	"testing"
	"time"
)

func ivl(id, parent int, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		ivl(1, 0, 0, 100),
		// Two children that overlap each other (parallel work): together
		// they cover 10..50.
		ivl(2, 1, 10, 40),
		ivl(3, 1, 30, 50),
		// A child that outlives its parent counts only up to the parent's
		// end: 90..100.
		ivl(4, 1, 90, 130),
		// A grandchild is its parent's business, not the root's.
		ivl(5, 2, 15, 35),
		// A child wholly inside another child adds nothing.
		ivl(6, 1, 12, 20),
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - 40 - 10, // covered: 10..50 and 90..100
		2: 30 - 20,
		3: 20,
		4: 40,
		5: 20,
		6: 8,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer("test")
	tr.do("outer", 0, func(id int) {
		tr.do("inner", id, func(int) { time.Sleep(2 * time.Millisecond) })
	})
	spans := tr.closed()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Run != "test" {
		t.Fatalf("spans: %+v", spans)
	}
	if tr.total("inner") < 2*time.Millisecond || tr.total("outer") < tr.total("inner") {
		t.Errorf("totals: outer %v inner %v", tr.total("outer"), tr.total("inner"))
	}
	var nilTracer *tracer
	ran := false
	nilTracer.do("x", 0, func(int) { ran = true })
	if !ran || nilTracer.closed() != nil {
		t.Error("a nil tracer must run the body and record nothing")
	}
}
