package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// goBuild builds the package at pkgDir (relative to the checkout root) into
// out and returns the CPU time it took, the compiler and linker included.
// The build cache is warm after the first run in a checkout, so this is
// mostly the staleness check and the link.
func goBuild(root, pkgDir, out string) (time.Duration, error) {
	cmd := exec.Command("go", "build", "-o", out, ".")
	cmd.Dir = filepath.Join(root, pkgDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build %s: %v: %s", pkgDir, err, stderr.String())
	}
	return cpuTime(cmd.ProcessState), nil
}

// Times are measured as CPU time, user plus system, not wall time. This
// guest accounts the time its host gives to other tenants as steal and
// leaves it out of CPU time, while wall time absorbs it: on the shared
// host it was measured on, the wall time of the same run swung by 3x.

// cpuTime is the CPU time of a finished process together with the children
// it waited for.
func cpuTime(ps *os.ProcessState) time.Duration { return ps.UserTime() + ps.SystemTime() }

// selfCPU is the CPU time this process has used so far, all threads.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procCPU is the CPU time the running process pid has used so far, all
// threads, in whole clock ticks.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The fields after the command name, which is in parentheses and may
	// hold spaces: state is field 3, utime 14 and stime 15.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %v", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}

// childEnv is the environment of every workload process: GOMAXPROCS is
// pinned to the CPUs this process may use.
func childEnv() []string {
	return append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", nproc()))
}

// maxRSSMB is the peak resident set of a finished process.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// proc is a running workload process whose standard output is read line by
// line.
type proc struct {
	cmd    *exec.Cmd
	lines  chan string
	stderr bytes.Buffer
	done   chan struct{} // closed once stdout is drained
}

// startProc starts bin with args in dir.
func startProc(dir, bin string, args ...string) (*proc, error) {
	p := &proc{cmd: exec.Command(bin, args...), lines: make(chan string, 64), done: make(chan struct{})}
	p.cmd.Dir = dir
	p.cmd.Env = childEnv()
	// A workload process must not outlive the harness, however it ends.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p.cmd.Stderr = &p.stderr
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	go func() {
		defer close(p.done)
		defer close(p.lines)
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 1<<16), 1<<24)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		io.Copy(io.Discard, out)
	}()
	return p, nil
}

// waitLine returns the first output line with prefix, or an error when the
// process ends or timeout passes first.
func (p *proc) waitLine(prefix string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				_, _, err := p.wait()
				return "", fmt.Errorf("%s exited before printing %q: %v", filepath.Base(p.cmd.Path), prefix, err)
			}
			if strings.HasPrefix(line, prefix) {
				return line, nil
			}
		case <-deadline:
			return "", fmt.Errorf("%s printed no %q within %v", filepath.Base(p.cmd.Path), prefix, timeout)
		}
	}
}

// wait collects the remaining output lines and waits for the process to
// exit.
func (p *proc) wait() ([]string, *os.ProcessState, error) {
	var rest []string
	for line := range p.lines {
		rest = append(rest, line)
	}
	<-p.done
	err := p.cmd.Wait()
	if err != nil {
		err = fmt.Errorf("%s: %v: %s", filepath.Base(p.cmd.Path), err, tail(p.stderr.String()))
	}
	return rest, p.cmd.ProcessState, err
}

// stop terminates the process (SIGTERM, then SIGKILL after grace) and waits
// for it. Dying of the SIGTERM itself counts as a clean stop: coordd prints
// its listening line before it installs its signal handler, so a stop soon
// after boot can arrive before the handler does.
func (p *proc) stop(grace time.Duration) ([]string, *os.ProcessState, error) {
	p.cmd.Process.Signal(syscall.SIGTERM)
	t := time.AfterFunc(grace, func() { p.cmd.Process.Kill() })
	defer t.Stop()
	lines, ps, err := p.wait()
	if ws, ok := ps.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		err = nil
	}
	return lines, ps, err
}

// tail keeps the end of a long stderr capture for error messages.
func tail(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 600 {
		s = "..." + s[len(s)-600:]
	}
	return s
}

// repeat calls rep with 0, 1, ... until budget has passed since the first
// call started. The last call may run past the budget.
func repeat(budget time.Duration, rep func(i int)) {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		rep(i)
	}
}
