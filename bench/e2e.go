package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/fivm/client"
)

// setups is how many times a run starts and bulk-loads the system under
// test; setup_s is their median. The last one is the one measured on.
const setups = 3

// sut is one running system under test.
type sut struct {
	w     workload
	bin   string
	log   string
	procs []*proc
	// cli is the entry point: the server, or the cluster's router.
	cli *client.Client
	// engines are the processes that hold an engine (the server itself,
	// or the cluster's workers): where /metrics and engine stats live.
	engines     []*client.Client
	workerAddrs []string
	workerArgs  []string // everything a worker runs with but its address and WAL dir
	walDir      string
}

// startSUT spawns the workload's server on free loopback ports, waits
// for it to be healthy and bulk-loads the base database. It returns the
// time all of that took: what a cold start costs.
func startSUT(w workload, bin, logPath string, st *stream) (*sut, float64, error) {
	s := &sut{w: w, bin: bin, log: logPath}
	t0 := time.Now()
	if w.cluster {
		port, err := freePorts(1 + connections)
		if err != nil {
			return nil, 0, err
		}
		if s.walDir, err = os.MkdirTemp(buildDir, "wal-"); err != nil {
			return nil, 0, err
		}
		s.workerArgs = append(w.engineFlags(), "-fsync", "always", "-checkpoint-interval", "5s")
		args := append([]string{filepath.Join(bin, "fivm-cluster"),
			"-addr", "127.0.0.1:" + strconv.Itoa(port), "-spawn", "2", "-spawn-port", strconv.Itoa(port + 1),
			"-shard-by", "Inventory", "-wal", s.walDir}, s.workerArgs...)
		p, err := spawn(logPath, args...)
		if err != nil {
			return nil, 0, err
		}
		s.procs = []*proc{p}
		s.cli = newClient("http://127.0.0.1:" + strconv.Itoa(port))
		for i := 1; i <= 2; i++ {
			addr := "127.0.0.1:" + strconv.Itoa(port+i)
			s.workerAddrs = append(s.workerAddrs, addr)
			s.engines = append(s.engines, newClient("http://"+addr))
		}
	} else {
		port, err := freePorts(1)
		if err != nil {
			return nil, 0, err
		}
		args := append([]string{filepath.Join(bin, "fivm-serve"), "-addr", "127.0.0.1:" + strconv.Itoa(port)}, w.engineFlags()...)
		p, err := spawn(logPath, args...)
		if err != nil {
			return nil, 0, err
		}
		s.procs = []*proc{p}
		s.cli = newClient("http://127.0.0.1:" + strconv.Itoa(port))
		s.engines = []*client.Client{s.cli}
	}
	if err := waitHealthy(s.cli, s.procs[0], 30*time.Second); err != nil {
		s.stop()
		return nil, 0, err
	}
	if !w.preset() { // a preset server has loaded its own base
		for _, ups := range st.loadBatches() {
			if _, err := s.cli.Update(context.Background(), wire(ups), true); err != nil {
				s.stop()
				return nil, 0, fmt.Errorf("bulk load: %w", err)
			}
		}
	}
	return s, time.Since(t0).Seconds(), nil
}

func (s *sut) stop() {
	for _, p := range s.procs {
		p.kill()
	}
	if s.walDir != "" {
		_ = os.RemoveAll(s.walDir)
	}
}

// pids lists the system's processes: the server, or the router and
// its workers.
func (s *sut) pids() []int {
	pids := []int{s.procs[0].cmd.Process.Pid}
	if s.w.cluster {
		pids = append(pids, childrenOf(pids[0])...)
	}
	return pids
}

// peakRSS sums VmHWM over the system's processes.
func (s *sut) peakRSS() (float64, error) {
	var sum float64
	for _, pid := range s.pids() {
		mib, err := vmHWM(pid)
		if err != nil {
			return 0, err
		}
		sum += mib
	}
	return sum, nil
}

// scrape sums every engine process's /metrics samples, plus the
// router's own on a cluster.
func (s *sut) scrape() (map[string]float64, error) {
	targets := s.engines
	if s.w.cluster {
		targets = append([]*client.Client{s.cli}, s.engines...)
	}
	sum := map[string]float64{}
	for _, c := range targets {
		text, err := c.Metrics(context.Background())
		if err != nil {
			return nil, err
		}
		samples, err := parseMetrics(text)
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", c.Base(), err)
		}
		for k, v := range samples {
			sum[k] += v
		}
	}
	return sum, nil
}

// sample is one timed request: when it was sent and when its response
// had been read, as offsets from the start of the window.
type sample struct {
	from, done time.Duration
	read       bool
	updates    int
	err        error
}

// drive runs the timed window and returns every request's sample. The
// loop is closed: each connection sends its next request when the
// previous one is acknowledged as applied and published (wait=1), and
// reads the model after every readEvery-th write, until `seconds` have
// passed.
func drive(s *sut, st *stream, seconds int) []sample {
	w := s.w
	ctx := context.Background()
	var next atomic.Int64
	perConn := make([][]sample, connections)
	var wg sync.WaitGroup
	t0 := time.Now()
	limit := time.Duration(seconds) * time.Second
	request := func(sm sample, do func() error) sample {
		sm.from = time.Since(t0)
		sm.err = do()
		sm.done = time.Since(t0)
		return sm
	}
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var out []sample
			for n := 1; time.Since(t0) < limit; n++ {
				ups := wire(st.batch(int(next.Add(1)-1), w.batch, w.replaceEvery))
				out = append(out, request(sample{updates: len(ups)}, func() error {
					_, err := s.cli.Update(ctx, ups, true)
					return err
				}))
				if n%w.readEvery == 0 {
					out = append(out, request(sample{read: true}, func() error {
						_, err := s.cli.Model(ctx)
						return err
					}))
				}
			}
			perConn[c] = out
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, out := range perConn {
		all = append(all, out...)
	}
	return all
}

// result is one run of one workload.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Env      environment        `json:"env"`
	Correct  bool               `json:"correct"`
	Broken   []string           `json:"broken,omitempty"`
	Requests int                `json:"requests"`
	Failed   int                `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
	Tail     map[string]float64 `json:"tail"`
	Counts   map[string]float64 `json:"counts"`
}

// percentile is the q-quantile of sorted (nearest rank).
func percentile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// latencies reports prefix_p50_ms, and in the ungated tail block the
// higher percentiles the sample supports: at least ten samples beyond
// each.
func latencies(res *result, prefix string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	sort.Float64s(ms)
	res.Metrics[prefix+"_p50_ms"] = percentile(ms, 0.5)
	for _, p := range []struct {
		name string
		q    float64
	}{{"_p99_ms", 0.99}, {"_p999_ms", 0.999}} {
		if float64(len(ms))*(1-p.q) >= 10 {
			res.Tail[prefix+p.name] = percentile(ms, p.q)
		}
	}
}

// runE2E is one end-to-end run: set up, warm up, drive the timed
// window, check the outcome against the from-scratch reference.
func runE2E(w workload, seed int64, seconds int) (*result, error) {
	bin, err := buildBinaries()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(outDir, w.name+".log")
	_ = os.Remove(logPath)
	st := newStream(seed, w.rows, w.window, w.preset())
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Env: currentEnvironment(),
		Metrics: map[string]float64{}, Tail: map[string]float64{}, Counts: map[string]float64{}}

	var s *sut
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			s.stop()
		}
		var took float64
		if s, took, err = startSUT(w, bin, logPath, st); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took)
	}
	defer s.stop()
	sort.Float64s(setupTimes)
	res.Metrics["setup_s"] = setupTimes[len(setupTimes)/2]

	ctx := context.Background()
	// Updates acknowledged so far, bulk load included; ackedFacts is the
	// Inventory part, which a cluster partitions instead of broadcasting.
	acked, ackedFacts := 0, w.rows+w.window
	if w.preset() {
		ackedFacts = w.window // the preset's own load is not an update
	} else {
		for _, ups := range st.loadBatches() {
			acked += len(ups)
		}
	}
	for j := 0; j*loadBatch < w.window; j++ {
		ups := st.warmup(j)
		if _, err := s.cli.Update(ctx, wire(ups), true); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		acked += len(ups)
	}

	before, err := s.scrape()
	if err != nil {
		return nil, err
	}
	samples := drive(s, st, seconds)
	after, err := s.scrape()
	if err != nil {
		return nil, err
	}

	// Requests complete out of order across connections, but every
	// write index below `writes` was sent, so the applied stream is the
	// contiguous prefix the reference assumes.
	var wall time.Duration
	var updMs, readMs []float64
	var writes, timedUpdates int
	for _, sm := range samples {
		res.Requests++
		wall = max(wall, sm.done)
		if sm.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "bench: request failed: %v\n", sm.err)
			continue
		}
		ms := float64(sm.done-sm.from) / float64(time.Millisecond)
		if sm.read {
			readMs = append(readMs, ms)
		} else {
			updMs = append(updMs, ms)
			writes++
			timedUpdates += sm.updates
		}
	}
	acked += timedUpdates
	res.Metrics["updates_per_s"] = float64(timedUpdates) / wall.Seconds()
	latencies(res, "update", updMs)
	latencies(res, "read", readMs)
	res.Tail["drift"] = drift(samples, wall)
	if d := res.Tail["drift"]; d < 0.9 || d > 1.1 {
		fmt.Fprintf(os.Stderr, "bench: %s is not stationary: second-half rate is %.3f of the first half's\n", w.name, d)
	}
	if res.Tail["peak_rss_mb"], err = s.peakRSS(); err != nil {
		return nil, err
	}
	pipelineCounts(res, before, after, timedUpdates, wall)

	factUpdates := writes * w.batch
	replaces := replacesIn(writes, w.replaceEvery)
	ref, err := referenceModel(st.reference(factUpdates, replaces))
	if err != nil {
		return nil, err
	}
	broken := func(format string, args ...any) {
		res.Broken = append(res.Broken, fmt.Sprintf(format, args...))
	}
	if res.Failed > 0 {
		broken("%d of %d requests failed", res.Failed, res.Requests)
	}
	s.checkCounters(acked, ackedFacts+factUpdates, broken)
	s.checkModel(ref, broken)
	if w.cluster {
		s.killAndRecover(res, ref, broken)
	}
	res.Correct = len(res.Broken) == 0
	return res, nil
}

// drift is the second half's update rate over the first half's. A
// bounded-state stream on a healthy system holds it near 1.
func drift(samples []sample, wall time.Duration) float64 {
	var first, second int
	for _, sm := range samples {
		if sm.err != nil || sm.read {
			continue
		}
		if sm.done <= wall/2 {
			first += sm.updates
		} else {
			second += sm.updates
		}
	}
	return float64(second) / float64(max(first, 1))
}

// checkCounters verifies that what the servers applied is exactly what
// was acknowledged. On a cluster the ackedFacts Inventory updates are
// partitioned and the rest are broadcast to every shard.
func (s *sut) checkCounters(acked, ackedFacts int, broken func(string, ...any)) {
	ctx := context.Background()
	want := acked
	if s.w.cluster {
		want = ackedFacts + len(s.engines)*(acked-ackedFacts)
	}
	var applied uint64
	for _, c := range s.engines {
		stats, err := c.Stats(ctx)
		if err != nil {
			broken("stats of %s: %v", c.Base(), err)
			return
		}
		applied += stats.Applied
		if stats.Shed != 0 {
			broken("%s shed %d updates", c.Base(), stats.Shed)
		}
		if e := string(stats.Raw["apply_errors"]); e != "0" {
			broken("%s reports apply_errors=%s", c.Base(), e)
		}
	}
	if applied != uint64(want) {
		broken("servers applied %d updates, %d were acknowledged", applied, want)
	}
	if s.w.cluster {
		s.checkWorkers(broken)
	}
}

// checkWorkers verifies the router's per-worker invariant: every update
// it had acknowledged by a worker is applied there.
func (s *sut) checkWorkers(broken func(string, ...any)) {
	stats, err := s.cli.Stats(context.Background())
	if err != nil {
		broken("router stats: %v", err)
		return
	}
	workers, err := decodeWorkers(stats.Raw["workers"])
	if err != nil || len(workers) != len(s.engines) {
		broken("router stats list %d workers (%v), want %d", len(workers), err, len(s.engines))
		return
	}
	for _, wk := range workers {
		if !wk.OK || wk.Acked != wk.Applied {
			broken("worker %d: ok=%v acked_updates=%d applied_updates=%d", wk.ID, wk.OK, wk.Acked, wk.Applied)
		}
	}
}

// checkModel compares the served model with the from-scratch reference:
// the count exactly, every covar entry within 1e-9 relative. The
// analysis engine publishes a ridge model whose weights depend on the
// warm-start history, so only its count is comparable.
func (s *sut) checkModel(ref map[string]any, broken func(string, ...any)) {
	m, err := s.cli.Model(context.Background())
	if err != nil {
		broken("reading the model: %v", err)
		return
	}
	if got, want := m.Body["count"], ref["count"]; got != want {
		broken("model count %v, from-scratch reference %v", got, want)
	}
	if s.w.preset() {
		return
	}
	got, want := covarEntries(m.Body), covarEntries(ref)
	if len(got) != len(want) {
		broken("model has %d covar entries, reference %d", len(got), len(want))
	}
	for name, x := range want {
		if y := got[name]; !closeTo(x, y) {
			broken("model %s = %v, from-scratch reference %v", name, y, x)
		}
	}
}

// closeTo is the covar comparison: within 1e-9 relative.
func closeTo(want, got float64) bool {
	return math.Abs(want-got) <= 1e-9*math.Max(math.Abs(want), 1)
}

// covarEntries flattens a covar model body (as decoded from JSON) to
// named numbers.
func covarEntries(body map[string]any) map[string]float64 {
	out := map[string]float64{}
	if sums, ok := body["sums"].(map[string]any); ok {
		for a, v := range sums {
			out["sum("+a+")"], _ = v.(float64)
		}
	}
	if prods, ok := body["products"].([]any); ok {
		for _, p := range prods {
			if e, ok := p.(map[string]any); ok {
				out[fmt.Sprintf("sum(%v*%v)", e["a"], e["b"])], _ = e["q"].(float64)
			}
		}
	}
	return out
}

// killAndRecover ends the cluster workload the way a crash would: one
// worker is killed with SIGKILL and restarted on its WAL directory.
// Afterwards every acknowledged update must still be applied on every
// worker and the merged model must still equal the reference.
func (s *sut) killAndRecover(res *result, ref map[string]any, broken func(string, ...any)) {
	const victim = 0
	addr := s.workerAddrs[victim]
	pid := 0
	for _, c := range childrenOf(s.procs[0].cmd.Process.Pid) {
		if cmdlineHas(c, addr) {
			pid = c
		}
	}
	if pid == 0 {
		broken("worker on %s not found among the router's children", addr)
		return
	}
	if err := killPid(pid); err != nil {
		broken("kill -9 %d: %v", pid, err)
		return
	}
	t0 := time.Now()
	args := append([]string{filepath.Join(s.bin, "fivm-cluster"), "-worker", "-worker-addr", addr,
		"-wal", filepath.Join(s.walDir, "shard-"+strconv.Itoa(victim))}, s.workerArgs...)
	p, err := spawn(s.log, args...)
	if err != nil {
		broken("restarting worker: %v", err)
		return
	}
	s.procs = append(s.procs, p)
	if err := waitHealthy(s.engines[victim], p, 60*time.Second); err != nil {
		broken("restarted worker: %v", err)
		return
	}
	res.Tail["recovery_s"] = time.Since(t0).Seconds()
	if stats, err := s.engines[victim].Stats(context.Background()); err == nil {
		var wal struct {
			RecoveredBatches float64 `json:"recovered_batches"`
		}
		if json.Unmarshal(stats.Raw["wal"], &wal) == nil {
			res.Tail["recovery_replayed_batches"] = wal.RecoveredBatches
		}
	}
	s.checkWorkers(broken)
	s.checkModel(ref, broken)
}

// workerRow is one worker's row in the router's GET /v1/stats.
type workerRow struct {
	ID      int    `json:"id"`
	OK      bool   `json:"ok"`
	Acked   uint64 `json:"acked_updates"`
	Applied uint64 `json:"applied_updates"`
}

func decodeWorkers(raw json.RawMessage) ([]workerRow, error) {
	var rows []workerRow
	return rows, json.Unmarshal(raw, &rows)
}

// pipelineCounts reports what the servers' own counters say happened
// during the timed window: two /metrics scrapes, one before and one
// after, so the run itself is unperturbed.
func pipelineCounts(res *result, before, after map[string]float64, updates int, wall time.Duration) {
	d := func(name string) float64 { return after[name] - before[name] }
	ratio := func(name string, num, den float64) {
		if den > 0 {
			res.Counts[name] = num / den
		}
	}
	batches := d("fivm_batches_total")
	applied := d("fivm_applied_updates_total")
	ratio("updates_per_flushed_batch", applied, batches)
	ratio("delta_tuples_per_update", d("fivm_delta_tuples_total"), applied)
	ratio("snapshots_per_batch", d("fivm_snapshots_total"), batches)
	res.Counts["shed_updates"] = d("fivm_ingest_shed_updates_total")
	res.Counts["dedup_hits"] = d("fivm_dedup_hits_total")
	ratio("wal_bytes_per_update", d("fivm_wal_appended_bytes_total"), applied)
	res.Counts["wal_fsyncs"] = d("fivm_wal_fsync_seconds_count")
	ratio("wal_fsync_us", 1e6*d("fivm_wal_fsync_seconds_sum"), d("fivm_wal_fsync_seconds_count"))
	var busy float64
	for _, stage := range []string{"build", "apply", "publish"} {
		sum := d(`fivm_stage_seconds_sum{stage="` + stage + `"}`)
		busy += sum
		ratio(stage+"_us_per_update", 1e6*sum, applied)
	}
	// Build runs on the batcher goroutines; apply and publish are the
	// single writer's whole job.
	res.Counts["writer_busy_share"] = (d(`fivm_stage_seconds_sum{stage="apply"}`) + d(`fivm_stage_seconds_sum{stage="publish"}`)) / wall.Seconds()
	res.Counts["stage_busy_share"] = busy / wall.Seconds()
	ratio("batcher_wait_us", 1e6*d("fivm_batcher_wait_seconds_sum"), d("fivm_batcher_wait_seconds_count"))
	res.Counts["router_retries"] = d("fivm_cluster_retries_total")
	ratio("cluster_merge_us", 1e6*d("fivm_cluster_merge_seconds_sum"), d("fivm_cluster_merge_seconds_count"))
	if acked := shardAcked(after, before); len(acked) > 0 {
		var sum, top float64
		for _, a := range acked {
			sum += a
			top = max(top, a)
		}
		ratio("shard_skew", top*float64(len(acked)), sum)
	}
	ratio("e2e_us_per_update", 1e6*wall.Seconds(), float64(updates))
}

// shardAcked is the per-shard acked-update deltas of a router scrape.
func shardAcked(after, before map[string]float64) []float64 {
	var out []float64
	for name, v := range after {
		if strings.HasPrefix(name, "fivm_cluster_shard_acked_updates_total{") {
			out = append(out, v-before[name])
		}
	}
	return out
}
