// Command perfbench is the repository's benchmark. It runs one named
// workload at a given seed, checks every output against a golden reference,
// and prints its metrics as one JSON line:
//
//	bash perfbench/run.sh --workload reproduce --seed 1 --seconds 25 --trace 0
//
// Workloads: reproduce (the cmd/reproduce pipeline), fleet-ops (a
// distributed-plane run, interrupted and resumed) and coordd-mix (an
// open-loop request mix against cmd/coordd). --trace 0 measures the
// end-to-end metrics untraced; --trace 1 makes the traced per-layer sweep.
// See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates a run's operations and metrics.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	tails             map[string]tailNote
	info              map[string]float64 // reported on the record line only
}

// tailNote says which percentile a reported tail is and of how many
// samples.
type tailNote struct {
	Pct float64 `json:"pct"` // 0: fewer than 20 samples, the tail is the maximum
	N   int     `json:"n"`
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, tails: map[string]tailNote{}, info: map[string]float64{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// setDist reports a timing distribution as name_p50_ms and name_tail_ms.
func (o *outcome) setDist(name string, d dist) {
	o.set(name+"_p50_ms", d.P50, "ms")
	o.set(name+"_tail_ms", d.Tail, "ms")
	o.tails[name+"_tail_ms"] = tailNote{d.TailPct, d.N}
}

// ops records n operations of which bad failed, with the reasons.
func (o *outcome) ops(n int, bad []string) {
	o.attempted += n
	o.failed += min(len(bad), n)
	o.problems = append(o.problems, bad...)
}

// fail records n failed operations for one reason.
func (o *outcome) fail(n int, why string) {
	o.attempted += n
	o.failed += n
	o.problems = append(o.problems, why)
}

// options are the harness's command-line settings.
type options struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string // scratch directory for this run, under .bench_build
}

func (o options) in() int64             { return inputSeed(o.seed) }
func (o options) budget() time.Duration { return time.Duration(o.seconds) * time.Second }

var workloads = map[string]func(options) (*outcome, error){
	"reproduce":  runReproduce,
	"fleet-ops":  runFleetOps,
	"coordd-mix": runCoorddMix,
}

func main() {
	var o options
	var traceFlag int
	var child string
	var capture bool
	flag.StringVar(&o.root, "root", ".", "root of the coordcharge checkout")
	flag.StringVar(&o.workload, "workload", "", "workload: reproduce, fleet-ops or coordd-mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; inputs are generated from it")
	flag.IntVar(&o.seconds, "seconds", 25, "how long one run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 makes the traced per-layer sweep instead of the end-to-end run")
	flag.StringVar(&child, "child", "", "internal: run a workload body in this process (fleet-ops)")
	flag.BoolVar(&capture, "capture-golden", false, "write the golden references for every input set and exit")
	flag.Parse()
	o.trace = traceFlag == 1

	root, err := filepath.Abs(o.root)
	if err != nil {
		fatal(err)
	}
	o.root = root
	runtime.GOMAXPROCS(nproc())

	switch {
	case child != "":
		if err := runChild(child, o, flag.Args()); err != nil {
			fatal(err)
		}
		return
	case capture:
		if err := captureGolden(o); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want reproduce, fleet-ops or coordd-mix)", o.workload))
	}
	if o.seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	if o.work, err = os.MkdirTemp(mkdirs(o.root, ".bench_build", "runs"), o.workload+"-"); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(o.work)

	mode := "end-to-end"
	if o.trace {
		mode = "traced"
		run = runTraced
	}
	start := time.Now()
	out, err := run(o)
	if err != nil {
		os.RemoveAll(o.work)
		fatal(err)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", o.workload, p)
	}
	if !o.trace {
		// fail_frac as a share that is never 0: correct operations over
		// operations attempted.
		out.set("ok_frac", float64(out.attempted-out.failed)/float64(max(out.attempted, 1)), "frac")
	}
	record := map[string]any{
		"workload": o.workload, "mode": mode, "seed": o.seed, "input_set": o.in(),
		"seconds": o.seconds, "elapsed_s": time.Since(start).Seconds(), "host": hostInfo(),
	}
	if len(out.tails) > 0 {
		record["tails"] = out.tails
	}
	for k, v := range out.info {
		record[k] = v
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	printJSON(map[string]any{"record": record})
	printJSON(res)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// mkdirs joins parts and creates the directory.
func mkdirs(parts ...string) string {
	dir := filepath.Join(parts...)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

// hostInfo records what the numbers were measured on.
func hostInfo() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      nproc(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// nproc is the number of CPUs this process may run on.
func nproc() int { return runtime.NumCPU() }

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
