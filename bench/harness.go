package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/fivm/client"
)

// Everything the benchmark writes stays inside the checkout: binaries
// and WAL directories under buildDir, logs and traces under outDir.
const (
	buildDir = ".bench_build"
	outDir   = "bench/out"
)

// buildBinaries builds the two servers under test from the checkout the
// benchmark runs in. The go command skips the link when the binaries
// are current, so only the first run in a checkout pays for it; the
// time is in no metric.
func buildBinaries() (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/fivm-serve", "./cmd/fivm-cluster")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building servers: %w\n%s", err, out)
	}
	return bin, nil
}

// freePorts finds n consecutive free loopback ports (fivm-cluster
// -spawn puts worker i on spawn-port+i).
func freePorts(n int) (int, error) {
	for attempt := 0; attempt < 50; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		base := l.Addr().(*net.TCPAddr).Port
		l.Close()
		ok := true
		for i := 0; i < n && ok; i++ {
			li, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(base+i))
			if err != nil {
				ok = false
				break
			}
			li.Close()
		}
		if ok {
			return base, nil
		}
	}
	return 0, fmt.Errorf("no %d consecutive free ports", n)
}

// proc is a spawned server process, leader of its own process group so
// that killing the group also takes the workers fivm-cluster forked.
type proc struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the leader has been waited for
}

// live is every process group not yet killed; killAll runs on every
// exit path (normal return, failed check, panic, SIGINT/SIGTERM) so no
// server survives the benchmark.
var (
	liveMu sync.Mutex
	live   = map[*proc]bool{}
)

func spawn(logPath string, argv ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	liveMu.Lock()
	defer liveMu.Unlock()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, log: logf, done: make(chan struct{})}
	live[p] = true
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// kill SIGKILLs the process group and waits for the leader. The
// benchmark never needs a graceful shutdown: every number is read
// before teardown, and the WAL workload's point is that kill -9 is
// safe.
func (p *proc) kill() {
	liveMu.Lock()
	wasLive := live[p]
	delete(live, p)
	liveMu.Unlock()
	if !wasLive {
		return
	}
	pgrp := p.cmd.Process.Pid
	_ = syscall.Kill(-pgrp, syscall.SIGKILL)
	<-p.done
	// The leader's forked workers are not our children; poll until the
	// kernel has torn them down too.
	for deadline := time.Now().Add(5 * time.Second); !groupGone(pgrp) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	p.log.Close()
}

// killPid is kill -9 of one process that is not a group leader of ours
// (a worker fivm-cluster forked).
func killPid(pid int) error { return syscall.Kill(pid, syscall.SIGKILL) }

func killAll() {
	liveMu.Lock()
	ps := make([]*proc, 0, len(live))
	for p := range live {
		ps = append(ps, p)
	}
	liveMu.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// killOnSignal tears the servers down when the benchmark itself is
// interrupted.
func killOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		killAll()
		os.Exit(130)
	}()
}

// newClient is a client pinned to `connections` keep-alive connections
// and no retries: a refused or failed request is counted, not hidden.
func newClient(base string) *client.Client {
	tr := &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections}
	return client.New(base, client.WithRetries(0),
		client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 60 * time.Second}))
}

func waitHealthy(cli *client.Client, p *proc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		h, err := cli.Healthz(ctx)
		cancel()
		if err == nil && h.OK {
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy (see its log)", cli.Base())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v (last: %v)", cli.Base(), timeout, err)
		}
	}
}

// procStat is the part of /proc/<pid>/stat the harness reads.
type procStat struct {
	pid, ppid, pgrp int
	zombie          bool
}

func procStats() []procStat {
	var out []procStat
	paths, _ := filepath.Glob("/proc/[0-9]*/stat")
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		// pid (comm) state ppid pgrp ...; comm may contain spaces, so
		// cut at the last ')'.
		f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
		if len(f) < 3 {
			continue
		}
		ps := procStat{zombie: f[0] == "Z"}
		ps.pid, _ = strconv.Atoi(filepath.Base(filepath.Dir(path)))
		ps.ppid, _ = strconv.Atoi(f[1])
		ps.pgrp, _ = strconv.Atoi(f[2])
		out = append(out, ps)
	}
	return out
}

// childrenOf lists the live direct children of pid.
func childrenOf(pid int) []int {
	var out []int
	for _, ps := range procStats() {
		if ps.ppid == pid && !ps.zombie {
			out = append(out, ps.pid)
		}
	}
	return out
}

// groupGone reports whether every process of the group has ended (a
// zombie has: only its exit status is left).
func groupGone(pgrp int) bool {
	for _, ps := range procStats() {
		if ps.pgrp == pgrp && !ps.zombie {
			return false
		}
	}
	return true
}

// cmdlineHas reports whether pid's command line has arg as one word.
func cmdlineHas(pid int, arg string) bool {
	data, _ := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
	for _, a := range bytes.Split(data, []byte{0}) {
		if string(a) == arg {
			return true
		}
	}
	return false
}

// vmHWM is pid's peak resident set in MiB, from /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
