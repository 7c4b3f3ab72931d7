package main

import (
	"os"
	"testing"
	"time"
)

// procCPU, read from /proc/<pid>/stat in clock ticks, agrees with the
// process's own rusage to within a tick per field.
func TestProcCPUMatchesRusage(t *testing.T) {
	for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
	}
	before := selfCPU()
	got, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	after := selfCPU()
	if got < before-2*clockTick || got > after {
		t.Fatalf("procCPU = %v, want within [%v, %v]", got, before-2*clockTick, after)
	}
	if got < 50*time.Millisecond {
		t.Fatalf("procCPU = %v after 100 ms of spinning", got)
	}
}
