package main

// The coordd-mix workload: an open-loop request schedule against the built
// cmd/coordd over loopback HTTP. One generator (this process) with at most
// nproc connections sends advise, run, ingest and status requests at a fixed
// rate while coordd hosts a paced resident fleet. coordd runs with one
// compute worker, so compute requests queue at admission.
//
// The repository holds no record of real request traffic, so the shares of
// the four request types are assumptions (see schedule). The rates are not:
// they are set as utilisations of the single compute worker, from service
// times the traced sweep measures.
//
// Every advise, run and ingest response body is checked against the golden
// reference: the bodies a serial pass over the same requests returned when
// the benchmark was defined.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"coordcharge/internal/trace"
)

// Shape of the mix.
const (
	mixHot        = 3 // advise bodies that repeat
	mixCold       = 9 // advise bodies that vary
	mixTraces     = 3 // ingested traces, one run body each
	mixTraceRacks = 12
	mixTraceStep  = 60 * time.Second
	mixTraceSpan  = 8 * time.Hour
	// Shares of the request types; status takes the rest.
	shareAdvise = 0.45
	shareRun    = 0.20
	shareIngest = 0.15
	// adviseTailLimitMS bounds advise tail latency on the max-rate ladder.
	adviseTailLimitMS = 1000.0
	residentPace      = 30.0
	residentStep      = 3 * time.Second
	// serialReps is how many serial passes a run times; cpu_s is the
	// median. The open-loop phase gets the rest of the budget.
	serialReps = 16
)

// Unloaded service times of the compute requests, in ms: the medians of
// scenario.advise30.ms and scenario.run_on_trace.ms over input sets 1-3
// (70 and 12 ms), measured on a 2-vCPU Intel Xeon host. Ingest and status
// requests bypass admission and do not occupy the worker.
const (
	serviceAdviseMS = 70.0
	serviceRunMS    = 12.0
)

// workerRate is the request rate of the mix at which the single compute
// worker is busy a share u of the time.
func workerRate(u float64) float64 {
	return u * 1000 / (shareAdvise*serviceAdviseMS + shareRun*serviceRunMS)
}

// mixNominalRate is the rate of the measured phase, about 5.9 requests per
// second: the worker is busy a fifth of the time, so the queue stays stable
// through the 3x slowdowns a shared host shows (a share of 0.6 then).
var mixNominalRate = workerRate(0.2)

// mixLadder are the rates the max-rate search tries in order, stopping at
// the first that fails: worker utilisations from 0.25 to 1.75 in steps of
// 0.25 (about 7.4 to 52 requests per second), so the knee near 1 lies
// inside the ladder and a faster worker can move it.
var mixLadder = func() []float64 {
	var rates []float64
	for k := 1; k <= 7; k++ {
		rates = append(rates, workerRate(0.25*float64(k)))
	}
	return rates
}()

// mixReq is one distinct request of the mix. key names its golden body.
type mixReq struct {
	key, path, body string
}

// mixInputs are the requests generated from one input seed.
type mixInputs struct {
	advise []mixReq // the first mixHot repeat
	runs   []mixReq
	ingest []mixReq
	frames int // frames per ingested trace
}

// coorddArgs are the daemon's flags: a small paced resident fleet and one
// compute worker with a wait queue of four. With at most nproc connections,
// at most nproc-1 requests can wait, so on fewer than six CPUs the queue
// never fills: svc.shed and svc.queue_timeouts stay 0 and overload shows as
// generator lateness and queue wait instead.
func coorddArgs(in int64) []string {
	return []string{"-addr", "127.0.0.1:0", "-p1", "4", "-p2", "4", "-p3", "4",
		"-seed", fmt.Sprint(in), "-dod", "0.5", "-limit", "0.105",
		"-pace", fmt.Sprint(residentPace), "-workers", "1", "-queue", "4"}
}

// adviseShapes are the fleets the advise requests size: (P1, P2, P3)
// splits of 30 racks and an average depth of discharge each. The shapes
// are fixed, so every input set asks for the same amount of work; the
// input seed picks the traces behind them, the priorities and the order.
var adviseShapes = [mixHot + mixCold]struct {
	p1, p2, p3 int
	dod        float64
}{
	{10, 10, 10, 0.5}, {8, 14, 8, 0.4}, {12, 12, 6, 0.6},
	{4, 20, 6, 0.3}, {14, 8, 8, 0.7}, {6, 6, 18, 0.45}, {10, 15, 5, 0.55},
	{5, 10, 15, 0.35}, {12, 6, 12, 0.65}, {9, 12, 9, 0.5}, {7, 16, 7, 0.4}, {11, 11, 8, 0.6},
}

// runDODs are the depths of discharge of the run requests, one per trace.
var runDODs = [mixTraces]float64{0.3, 0.5, 0.7}

func genMix(in int64) mixInputs {
	var m mixInputs
	for k, f := range adviseShapes {
		body := fmt.Sprintf(`{"p1":%d,"p2":%d,"p3":%d,"avg_dod":%.2f,"seed":%d}`,
			f.p1, f.p2, f.p3, f.dod, in*1000+int64(k))
		m.advise = append(m.advise, mixReq{fmt.Sprintf("advise/%02d", k), "/api/v1/advise", body})
	}
	for k, dod := range runDODs {
		name := fmt.Sprintf("trace-%d-%d", in, k)
		nd, frames := traceNDJSON(name, in*100+int64(k))
		m.frames = frames
		m.ingest = append(m.ingest, mixReq{fmt.Sprintf("ingest/%d", k), "/api/v1/ingest", nd})
		body := fmt.Sprintf(`{"p1":4,"p2":4,"p3":4,"avg_dod":%.2f,"limit_mw":0.09,"trace":%q}`, dod, name)
		m.runs = append(m.runs, mixReq{fmt.Sprintf("run/%d", k), "/api/v1/run", body})
	}
	return m
}

// traceNDJSON renders a synthetic rack trace as an ingestion upload.
func traceNDJSON(name string, seed int64) (string, int) {
	g, err := trace.NewGenerator(trace.Spec{NumRacks: mixTraceRacks, Seed: seed})
	if err != nil {
		panic(err) // the spec is a constant of this file
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"name":%q,"racks":%d,"step_s":%g}`+"\n", name, mixTraceRacks, mixTraceStep.Seconds())
	frames := int(mixTraceSpan / mixTraceStep)
	for k := 0; k < frames; k++ {
		t := time.Duration(k) * mixTraceStep
		fmt.Fprintf(&b, `{"t_s":%g,"w":[`, t.Seconds())
		for i := 0; i < mixTraceRacks; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(float64(g.Rack(i, t)), 'f', 1, 64))
		}
		b.WriteString("]}\n")
	}
	return b.String(), frames
}

// schedule picks the requests of a phase at rate. The shares are assumed:
// advise, the capacity question the service exists to answer, is the
// largest (45 %), and half of it repeats a hot set of three bodies, so a
// result cache would serve about a quarter of all requests; run replays
// (20 %) are what-if reads over uploaded traces, more frequent than the
// uploads (15 %) that feed them; status (20 %) is a dashboard poll.
func (m mixInputs) schedule(in int64, rate float64, n int) []*mixReq {
	r := rand.New(rand.NewPCG(uint64(in), uint64(rate*1000)))
	status := &mixReq{key: "status", path: "/api/v1/status"}
	out := make([]*mixReq, n)
	for i := range out {
		switch u := r.Float64(); {
		case u < shareAdvise:
			if r.IntN(2) == 0 {
				out[i] = &m.advise[r.IntN(mixHot)]
			} else {
				out[i] = &m.advise[mixHot+r.IntN(mixCold)]
			}
		case u < shareAdvise+shareRun:
			out[i] = &m.runs[r.IntN(len(m.runs))]
		case u < shareAdvise+shareRun+shareIngest:
			out[i] = &m.ingest[r.IntN(len(m.ingest))]
		default:
			out[i] = status
		}
	}
	return out
}

// kind is the request type a key belongs to.
func kind(key string) string {
	k, _, _ := strings.Cut(key, "/")
	return k
}

// coordd is a running daemon and a client limited to nproc connections.
type coordd struct {
	p    *proc
	base string
	http *http.Client
}

func bootCoordd(o options, bin string) (*coordd, error) {
	p, err := startProc(o.work, bin, coorddArgs(o.in())...)
	if err != nil {
		return nil, err
	}
	line, err := p.waitLine("coordd: listening on ", time.Minute)
	if err != nil {
		p.stop(5 * time.Second)
		return nil, err
	}
	conns := nproc()
	c := &coordd{p: p, base: strings.TrimPrefix(line, "coordd: listening on "), http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   2 * time.Minute,
	}}
	// Ready once the resident fleet has ticked.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		var h struct {
			State string `json:"state"`
		}
		if err := c.getJSON("/healthz", &h); err == nil && h.State == "running" {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("coordd resident fleet did not start within a minute")
		}
	}
}

// stop shuts the daemon down and returns its peak resident set in MB.
func (c *coordd) stop() (float64, error) {
	c.http.CloseIdleConnections()
	_, ps, err := c.p.stop(30 * time.Second)
	return maxRSSMB(ps), err
}

// send issues one request and returns its status and body.
func (c *coordd) send(q *mixReq, prio int) (int, []byte, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if q.body != "" {
		method, body = http.MethodPost, strings.NewReader(q.body)
	}
	req, err := http.NewRequest(method, c.base+q.path, body)
	if err != nil {
		return 0, nil, err
	}
	if prio > 0 {
		req.Header.Set("X-Priority", strconv.Itoa(prio))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *coordd) getJSON(path string, v any) error {
	code, b, err := c.send(&mixReq{path: path}, 0)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d", path, code)
	}
	return json.Unmarshal(b, v)
}

const refusedWith = " refused with "

// check judges one response against the golden bodies.
func check(q *mixReq, code int, body []byte, want map[string]string) (ok bool, why string) {
	switch {
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		return false, fmt.Sprintf("%s%s%d", q.key, refusedWith, code)
	case code != http.StatusOK:
		return false, fmt.Sprintf("%s: status %d: %.200s", q.key, code, body)
	case q.key == "status":
		var s struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(body, &s); err != nil || s.State == "" {
			return false, fmt.Sprintf("status: unreadable body %.200s", body)
		}
		return true, ""
	case sha256Hex(body) != want[q.key]:
		return false, fmt.Sprintf("%s: body differs from the reference: %.200s", q.key, body)
	}
	return true, ""
}

// cpu is the CPU time the daemon has used so far.
func (c *coordd) cpu() (time.Duration, error) { return procCPU(c.p.cmd.Process.Pid) }

// serialPass sends every distinct request once, one at a time (ingests
// first, so the runs find their traces), and returns the bodies by key,
// the pass's wall time and the daemon's CPU time during it.
func serialPass(c *coordd, m mixInputs) (map[string]string, time.Duration, time.Duration, error) {
	got := map[string]string{}
	start := time.Now()
	cpu0, err := c.cpu()
	if err != nil {
		return nil, 0, 0, err
	}
	for _, set := range [][]mixReq{m.ingest, m.advise, m.runs} {
		for i := range set {
			code, body, err := c.send(&set[i], 1)
			if err != nil {
				return nil, 0, 0, err
			}
			if code != http.StatusOK {
				return nil, 0, 0, fmt.Errorf("%s: status %d: %.200s", set[i].key, code, body)
			}
			got[set[i].key] = sha256Hex(body)
		}
	}
	cpu1, err := c.cpu()
	return got, time.Since(start), cpu1 - cpu0, err
}

// phase runs the open-loop schedule at rate for dur.
func phase(c *coordd, m mixInputs, in int64, rate float64, dur time.Duration, want map[string]string) (loadStats, []string) {
	reqs := m.schedule(in, rate, int(rate*dur.Seconds())+1)
	prio := rand.New(rand.NewPCG(uint64(in), 0x7072696f))
	prios := make([]int, len(reqs))
	for i := range prios {
		prios[i] = 1 + prio.IntN(3)
	}
	whys := make([]string, len(reqs))
	shots := openLoop(rate, dur, nproc(), func(i int) string { return kind(reqs[i].key) },
		func(i int) bool {
			code, body, err := c.send(reqs[i], prios[i])
			if err != nil {
				whys[i] = fmt.Sprintf("%s: %v", reqs[i].key, err)
				return false
			}
			ok, why := check(reqs[i], code, body, want)
			whys[i] = why
			return ok
		})
	var bad []string
	for _, s := range shots {
		if !s.OK {
			bad = append(bad, whys[s.Index])
		}
	}
	return account(rate, shots), bad
}

func coorddGolden(root string, in int64) (map[string]string, error) {
	var g map[string]string
	if err := readGoldenJSON(goldenPath(root, "coordd-mix", in, "json"), &g); err != nil {
		return nil, err
	}
	if len(g) != mixHot+mixCold+2*mixTraces {
		return nil, fmt.Errorf("coordd-mix reference for input set %d has %d bodies, want %d", in, len(g), mixHot+mixCold+2*mixTraces)
	}
	return g, nil
}

// setupCoordd builds and boots the daemon setupReps times; all but the last
// instance are stopped again. A set-up's time is the CPU time of the build
// and of the daemon until it is ready.
func setupCoordd(o options) (*coordd, []float64, error) {
	var setups []float64
	var c *coordd
	for i := 0; i < setupReps; i++ {
		bin := filepath.Join(o.work, fmt.Sprintf("coordd-%d", i))
		build, err := goBuild(o.root, "cmd/coordd", bin)
		if err != nil {
			return nil, nil, err
		}
		if c, err = bootCoordd(o, bin); err != nil {
			return nil, nil, err
		}
		boot, err := c.cpu()
		if err != nil {
			c.stop()
			return nil, nil, err
		}
		setups = append(setups, (build + boot).Seconds())
		if i < setupReps-1 {
			if _, err := c.stop(); err != nil {
				return nil, nil, err
			}
		}
	}
	return c, setups, nil
}

func runCoorddMix(o options) (*outcome, error) {
	want, err := coorddGolden(o.root, o.in())
	if err != nil {
		return nil, err
	}
	m := genMix(o.in())
	c, setups, err := setupCoordd(o)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	start := time.Now()
	var walls, cpus []float64
	for i := 0; i < serialReps; i++ {
		got, wall, cpu, err := serialPass(c, m)
		if err != nil {
			c.stop()
			return nil, err
		}
		out.ops(len(got), diffStrings(want, got))
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
	}
	st, bad := phase(c, m, o.in(), mixNominalRate, max(o.budget()-time.Since(start), o.budget()/2), want)
	out.ops(st.Sent, bad)
	if _, err := c.stop(); err != nil {
		return nil, err
	}
	out.set("setup_s", median(setups), "s")
	logf("cpu_s samples: %v", cpus)
	out.set("cpu_s", median(cpus), "s")
	out.info["wall_s"] = median(walls)
	return out, nil
}
