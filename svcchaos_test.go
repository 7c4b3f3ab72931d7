package coordcharge

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"coordcharge/internal/obs"
	"coordcharge/internal/scenario"
	"coordcharge/internal/svc"
)

// Service-level chaos: the coordd daemon must shed load instead of falling
// over, and must survive a hard kill (SIGKILL, no drain, no final
// checkpoint) by auto-resuming from the last cadence checkpoint bit-exact.
// The flood arm runs in-process against svc.Service; the kill arms drive the
// real binary as a subprocess over HTTP, exactly as an operator would.

// chaosResident is the fleet shape shared by every arm of the chaos suite
// and by the in-process control run the resumed daemon is compared against.
// Mode and policy are spelled out because they must match the coordd flag
// defaults the subprocess runs with.
func chaosResident() *svc.RunRequest {
	return &svc.RunRequest{
		P1: 1, P2: 1, P3: 1,
		Seed:    5,
		AvgDOD:  0.3,
		LimitMW: 0.2,
		Mode:    "priority-aware",
		Policy:  "variable",
	}
}

// chaosControl runs the chaos resident uninterrupted in-process and returns
// the ground-truth flight digest and wire summary.
func chaosControl(t *testing.T) (digest string, summary []byte) {
	t.Helper()
	spec, err := chaosResident().Spec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Obs = obs.NewSink(0)
	res, err := scenario.RunCoordinated(spec)
	if err != nil {
		t.Fatal(err)
	}
	summary, err = json.Marshal(svc.Summarize(res))
	if err != nil {
		t.Fatal(err)
	}
	return spec.Obs.Flight.Digest(), summary
}

// TestServiceFloodShedsCleanly is the overload acceptance: a thousand
// concurrent advisor queries against a service with a small worker pool and
// a resident simulation running under default fault-injection rates. Every
// response must be a deliberate verdict — success, shed, breaker/drain
// rejection, or deadline abort — never a 500, and at least part of the flood
// must have been shed with a Retry-After hint.
func TestServiceFloodShedsCleanly(t *testing.T) {
	resident := chaosResident()
	resident.Faults = "default"
	s, err := svc.New(svc.Options{
		Resident: resident,
		Pool:     svc.PoolConfig{Workers: 4, QueueCap: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	h := s.Handler()

	// Every query sizes a 60-rack fleet — slow enough that a simultaneous
	// release genuinely contends for the 4 workers instead of draining
	// faster than goroutines can arrive.
	const flood = 1000
	codes := make([]int, flood)
	retryAfter := make([]string, flood)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			body := fmt.Sprintf(`{"p1":20,"p2":20,"p3":20,"avg_dod":0.5,"seed":%d}`, 1+i%7)
			r := httptest.NewRequest(http.MethodPost, "/api/v1/advise", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			codes[i] = w.Code
			retryAfter[i] = w.Header().Get("Retry-After")
		}(i)
	}
	close(start)
	wg.Wait()

	counts := map[int]int{}
	for i, c := range codes {
		counts[c]++
		switch c {
		case http.StatusOK, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("query %d: verdict %d is not a deliberate overload outcome", i, c)
		}
		if c == http.StatusTooManyRequests && retryAfter[i] == "" {
			t.Errorf("query %d: shed without Retry-After", i)
		}
	}
	t.Logf("flood verdicts: %v", counts)
	if counts[http.StatusOK] == 0 {
		t.Error("flood produced no successes")
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Error("a 1000-wide flood against 4 workers never shed: admission control is not engaged")
	}
	// The service survived: it still answers.
	r := httptest.NewRequest(http.MethodGet, "/api/v1/status", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status after flood: %d", w.Code)
	}
}

// buildCoordd compiles the daemon once per test binary invocation.
var buildCoordd = sync.OnceValues(func() (string, error) {
	bin := filepath.Join(os.TempDir(), fmt.Sprintf("coordd-chaos-%d", os.Getpid()))
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/coordd").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/coordd: %v\n%s", err, out)
	}
	return bin, nil
})

// coorddProc is one live daemon subprocess.
type coorddProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startCoordd launches the daemon on an ephemeral port and blocks until it
// announces its address.
func startCoordd(t *testing.T, extra ...string) *coorddProc {
	t.Helper()
	bin, err := buildCoordd()
	if err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-p1", "1", "-p2", "1", "-p3", "1",
		"-seed", "5", "-dod", "0.3", "-limit", "0.2",
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Dir = "."
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "coordd: listening on "); ok {
			go func() { // keep draining so the child never blocks on stdout
				for sc.Scan() {
				}
			}()
			return &coorddProc{cmd: cmd, base: rest}
		}
	}
	t.Fatalf("coordd exited before announcing its address: %v", sc.Err())
	return nil
}

// getJSON fetches one endpoint into out.
func (p *coorddProc) getJSON(t *testing.T, path string, out any) {
	t.Helper()
	resp, err := http.Get(p.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// runAndKill boots a paced checkpointing daemon, waits for ten virtual
// minutes of resident progress past the first observed tick (several
// 2-minute cadence checkpoints, so a rotated previous generation exists),
// then hard-kills it — SIGKILL, no drain, no final checkpoint.
func runAndKill(t *testing.T, dir string) {
	t.Helper()
	p := startCoordd(t,
		"-ckpt-dir", dir,
		"-checkpoint-interval", "2m",
		"-pace", "200",
	)
	deadline := time.Now().Add(60 * time.Second)
	first := -1.0
	for {
		if time.Now().After(deadline) {
			t.Fatal("resident never advanced 10 virtual minutes before the kill")
		}
		var health map[string]any
		p.getJSON(t, "/healthz", &health)
		tick, _ := health["resident_tick_s"].(float64)
		if tick > 0 {
			if first < 0 {
				first = tick
			}
			if tick-first >= 600 {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
	// A kill landing inside the rotation window (latest renamed to .prev,
	// new latest not yet published) legitimately leaves only the previous
	// generation — that torn state is exactly what ReadFileFallback
	// recovers from, so require at least one generation, not specifically
	// the newest.
	latest := filepath.Join(dir, svc.ResidentCheckpointFile)
	_, errLatest := os.Stat(latest)
	_, errPrev := os.Stat(latest + ".prev")
	if errLatest != nil && errPrev != nil {
		t.Fatalf("no cadence checkpoint generation survived the kill: %v / %v", errLatest, errPrev)
	}
}

// resumeAndVerify restarts the daemon free-running over the same checkpoint
// directory, waits for the resumed resident to finish, and requires its
// flight digest and wire summary to match the uninterrupted in-process
// control byte-for-byte.
func resumeAndVerify(t *testing.T, dir string) {
	t.Helper()
	wantDigest, wantSummary := chaosControl(t)
	p := startCoordd(t, "-ckpt-dir", dir)

	deadline := time.Now().Add(60 * time.Second)
	var status struct {
		State    string `json:"state"`
		Resident *struct {
			Summary json.RawMessage `json:"summary"`
		} `json:"resident"`
	}
	for {
		if time.Now().After(deadline) {
			t.Fatalf("resumed resident never reached idle (state %q)", status.State)
		}
		p.getJSON(t, "/api/v1/status", &status)
		if status.State == "idle" {
			break
		}
		if status.State == "degraded" {
			t.Fatal("resumed resident degraded instead of completing")
		}
		time.Sleep(20 * time.Millisecond)
	}

	var dig struct {
		Digest string `json:"digest"`
	}
	p.getJSON(t, "/debug/flight/digest", &dig)
	if dig.Digest != wantDigest {
		t.Errorf("resumed flight digest %s != control %s", dig.Digest, wantDigest)
	}
	if status.Resident == nil {
		t.Fatal("idle daemon reports no resident")
	}
	var got svc.RunSummary
	if err := json.Unmarshal(status.Resident.Summary, &got); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantSummary) {
		t.Errorf("resumed summary diverged:\nresumed %s\ncontrol %s", gotJSON, wantSummary)
	}
}

// TestCoorddKillResumeBitExact: hard-kill the daemon mid-run, restart it over
// the same checkpoint directory, and require the auto-resumed run to be
// byte-identical to an uninterrupted one.
func TestCoorddKillResumeBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos skipped in -short")
	}
	dir := t.TempDir()
	runAndKill(t, dir)
	resumeAndVerify(t, dir)
}

// TestCoorddKillResumeCorruptedLatest additionally corrupts the newest
// checkpoint generation after the kill; the restart must fall back to the
// previous-good generation and still converge bit-exact.
func TestCoorddKillResumeCorruptedLatest(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos skipped in -short")
	}
	dir := t.TempDir()
	runAndKill(t, dir)
	path := filepath.Join(dir, svc.ResidentCheckpointFile)
	if _, err := os.Stat(path + ".prev"); err != nil {
		t.Fatalf("no previous checkpoint generation on disk: %v", err)
	}
	// Corrupt the newest generation; if the kill already tore the rotation
	// (no latest on disk), fabricate a garbage newest generation — either
	// way the restart must reject it and fall back to the previous good
	// one.
	raw, err := os.ReadFile(path)
	if err == nil && len(raw) > 0 {
		raw[len(raw)/2] ^= 0x40
	} else {
		raw = []byte(`{"magic":"not-a-checkpoint"}`)
	}
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	resumeAndVerify(t, dir)
}

// TestCoorddSigtermRightAfterAnnounce: the announce line is the daemon's
// readiness contract, so a SIGTERM sent the moment it appears must take the
// graceful path — drain, final resident checkpoint, exit 0 — instead of the
// default signal action killing the process. A few launches widen the
// window for an ordering regression between the announce and the signal
// handler.
func TestCoorddSigtermRightAfterAnnounce(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos skipped in -short")
	}
	for i := 0; i < 3; i++ {
		dir := t.TempDir()
		p := startCoordd(t, "-ckpt-dir", dir, "-pace", "200")
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := p.cmd.Wait(); err != nil {
			t.Fatalf("launch %d: SIGTERM right after the announce: %v, want a graceful exit 0", i, err)
		}
		if _, err := os.Stat(filepath.Join(dir, svc.ResidentCheckpointFile)); err != nil {
			t.Errorf("launch %d: drain wrote no final resident checkpoint: %v", i, err)
		}
	}
}
