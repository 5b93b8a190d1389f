package cluster

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/obs"
)

// Config builds a Router.
type Config struct {
	// ShardURLs are the worker base URLs, one per shard; shard i of the
	// shard map is ShardURLs[i], so the list's order IS the partition
	// assignment and must be identical on every router instance. A
	// repeated URL is refused: that worker's partial would count twice.
	ShardURLs []string
	// Engine is the cluster-wide engine configuration — the exact
	// config every worker runs. The router opens a data-less "merger"
	// engine from it for the shard map's join key, merged model
	// publishing, and the view-tree rendering.
	Engine fivm.Config
	// ShardBy names the anchor relation to partition; empty selects the
	// first declared relation. All other relations broadcast.
	ShardBy string
	// HTTPClient optionally replaces the transport used for shard
	// calls.
	HTTPClient *http.Client
	// CoverWait bounds how long a merged read waits for every shard's
	// partial to cover the router's acked counts before giving up
	// (0 selects 2s; negative is refused).
	CoverWait time.Duration
	// ProbeInterval paces the background health prober feeding
	// /metrics gauges and bounding how stale a held partial may be
	// (default 2s). Negative disables it, and held partials with it:
	// every merged read then polls every shard.
	ProbeInterval time.Duration
	// RetryBudget bounds how long one write keeps retrying a shard's
	// transport failures and 503s (full-jitter exponential backoff
	// between attempts) before giving up on that shard; the request
	// context's deadline always wins when it is sooner. Default 2s;
	// negative disables per-shard retries entirely.
	RetryBudget time.Duration
	// BreakerThreshold is how many consecutive retryable failures open
	// a shard's circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before
	// admitting a half-open probe (default 1s).
	BreakerCooldown time.Duration
}

// shardRef is the router's per-worker state: the client, the monotonic
// counters the ack protocol and health aggregation ride on, and the
// newest partial the shard has sent.
type shardRef struct {
	id  int
	url string
	cli *client.Client
	// acked is the cumulative count of updates this router has had
	// acknowledged (applied + WAL-logged) by the shard — the
	// read-your-writes floor a merged read must cover.
	acked atomic.Uint64
	// applied caches the shard's last observed cumulative applied
	// counter; up its last observed reachability. Both feed /metrics.
	applied atomic.Uint64
	up      atomic.Bool
	// held is the newest (largest Applied) partial a write ack or a poll
	// brought back; nil when there is none or it was dropped.
	held atomic.Pointer[client.Partial]
	// brk fails writes to a persistently failing shard fast instead of
	// burning the whole retry budget against it on every request.
	brk *breaker
}

// Router fans v1 API traffic across the shard workers. It is stateless
// apart from the monotonic ack counters — a restarted router serves
// reads immediately (counters restart at zero, which only weakens
// read-your-writes to "writes acked by THIS router instance", the
// strongest claim a stateless tier can make).
type Router struct {
	cfg    Config
	smap   *ShardMap
	shards []*shardRef
	arity  map[string]int

	// merger is the data-less engine that decodes and ring-merges
	// per-shard partials; mergerMu serializes its use (MergePartials
	// swaps the result relation in place).
	merger   fivm.AnyEngine
	mergerMu sync.Mutex

	reg         *obs.Registry
	writes      *obs.Counter
	writeErrors *obs.Counter
	reads       *obs.Counter
	readErrors  *obs.Counter
	retries     *obs.Counter
	mergeLat    *obs.Histogram
	// Partials merged reads used, by source.
	partialsHeld    *obs.Counter
	partialsFetched *obs.Counter

	// origin + batchSeq mint batch IDs for writes that arrive without
	// an X-Fivm-Batch-Id, so the router's own per-shard retries are
	// idempotent even for clients that don't speak the header.
	origin   [16]byte
	batchSeq atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup
}

// New builds a router over cfg.ShardURLs. It opens the merger engine
// (validating the engine config exactly as a worker would) but does not
// contact any shard: workers may come up after the router.
func New(cfg Config) (*Router, error) {
	if len(cfg.ShardURLs) == 0 {
		return nil, fmt.Errorf("cluster: no shard URLs")
	}
	for i, u := range cfg.ShardURLs {
		if slices.Contains(cfg.ShardURLs[:i], u) {
			return nil, fmt.Errorf("cluster: shard URL %s is listed twice; its partial would be merged twice", u)
		}
	}
	if cfg.CoverWait < 0 {
		return nil, fmt.Errorf("cluster: cover wait %v is negative (0 selects the 2s default)", cfg.CoverWait)
	}
	if cfg.CoverWait == 0 {
		cfg.CoverWait = 2 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 2 * time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	merger, err := fivm.Open(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("cluster: opening merger engine: %w", err)
	}
	anchor := cfg.ShardBy
	if anchor == "" {
		anchor = cfg.Engine.Relations[0].Name
	}
	keyIdx, ok := merger.PartitionKey(anchor)
	if !ok {
		return nil, fmt.Errorf("cluster: shard-by relation %s is not an input relation (have %v)", anchor, merger.RelationNames())
	}
	rt := &Router{
		cfg:    cfg,
		smap:   NewShardMap(len(cfg.ShardURLs), anchor, keyIdx),
		merger: merger,
		arity:  make(map[string]int),
		reg:    obs.NewRegistry(),
		stop:   make(chan struct{}),
	}
	_, _ = crand.Read(rt.origin[:])
	for _, rel := range merger.RelationNames() {
		n, _ := merger.Arity(rel)
		rt.arity[rel] = n
	}
	var opts []client.Option
	if cfg.HTTPClient != nil {
		opts = append(opts, client.WithHTTPClient(cfg.HTTPClient))
	}
	// The router does not retry 429s itself: backpressure must reach
	// the writing client, which owns the retry budget.
	opts = append(opts, client.WithRetries(0))
	if cfg.ProbeInterval > 0 && merger.Kind() == fivm.KindCovar {
		// Waited writes bring back the shard's partial for reads to merge.
		// Only a covar partial has a size fixed by the config; a grouped
		// or analysis one grows with the data, and every write would pay.
		opts = append(opts, client.WithPartialAcks())
	}
	for i, u := range cfg.ShardURLs {
		sh := &shardRef{
			id: i, url: u, cli: client.New(u, opts...),
			brk: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
		rt.shards = append(rt.shards, sh)
		label := fmt.Sprintf(`shard="%d"`, i)
		rt.reg.GaugeFunc("fivm_cluster_shard_up", label,
			"Whether the shard answered its last probe or request.",
			func() float64 {
				if sh.up.Load() {
					return 1
				}
				return 0
			})
		rt.reg.CounterFunc("fivm_cluster_shard_acked_updates_total", label,
			"Updates this router has had acknowledged by the shard.",
			sh.acked.Load)
		rt.reg.GaugeFunc("fivm_cluster_shard_applied_updates", label,
			"The shard's last observed cumulative applied-update counter.",
			func() float64 { return float64(sh.applied.Load()) })
		rt.reg.GaugeFunc("fivm_cluster_breaker_state", label,
			"Shard circuit-breaker state: 0 closed, 1 open, 2 half-open.",
			func() float64 { return float64(sh.brk.current()) })
	}
	rt.writes = rt.reg.NewCounter("fivm_cluster_requests_total", `op="write"`, "Routed requests by operation.")
	rt.reads = rt.reg.NewCounter("fivm_cluster_requests_total", `op="read"`, "Routed requests by operation.")
	rt.writeErrors = rt.reg.NewCounter("fivm_cluster_request_errors_total", `op="write"`, "Routed requests that failed, by operation.")
	rt.readErrors = rt.reg.NewCounter("fivm_cluster_request_errors_total", `op="read"`, "Routed requests that failed, by operation.")
	rt.retries = rt.reg.NewCounter("fivm_cluster_retries_total", "",
		"Per-shard write sub-batch retries (transport failures and 503s re-sent under the retry budget).")
	rt.mergeLat = rt.reg.NewHistogram("fivm_cluster_merge_seconds", "",
		"Latency of gathering and ring-merging per-shard partials.", obs.LatencyBuckets())
	const partialsHelp = "Partials merged reads used: held from a write ack or an earlier read, or fetched from the shard."
	rt.partialsHeld = rt.reg.NewCounter("fivm_cluster_partials_total", `source="held"`, partialsHelp)
	rt.partialsFetched = rt.reg.NewCounter("fivm_cluster_partials_total", `source="fetched"`, partialsHelp)
	if cfg.ProbeInterval > 0 {
		rt.probeWG.Add(1)
		go func() {
			defer rt.probeWG.Done()
			rt.probeLoop()
		}()
	}
	return rt, nil
}

// Close stops the background prober and waits for it to exit, so no
// probe can touch the shards after Close returns. In-flight requests
// finish.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.probeWG.Wait()
}

// mintBatchID stamps a write that arrived without a batch ID, making
// the router the retrying origin for it (same wire format as
// client.NextBatchID: hex origin, dash, decimal sequence).
func (rt *Router) mintBatchID() string {
	return hex.EncodeToString(rt.origin[:]) + "-" + strconv.FormatUint(rt.batchSeq.Add(1), 10)
}

// Map exposes the shard map (tests partition bulk data with it).
func (rt *Router) Map() *ShardMap { return rt.smap }

// Kind reports the hosted engine kind.
func (rt *Router) Kind() fivm.Kind { return rt.merger.Kind() }

// probeLoop keeps the per-shard up/applied gauges current even when no
// traffic flows.
func (rt *Router) probeLoop() {
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeInterval)
		var wg sync.WaitGroup
		for _, sh := range rt.shards {
			wg.Add(1)
			go func(sh *shardRef) {
				defer wg.Done()
				sh.observeStats(ctx)
			}(sh)
		}
		wg.Wait()
		cancel()
	}
}

// observeStats refreshes the shard's cached reachability and applied
// counter from one GET /v1/stats.
func (sh *shardRef) observeStats(ctx context.Context) {
	st, err := sh.cli.Stats(ctx)
	if err != nil {
		sh.markDown()
		return
	}
	app := st.Applied
	if st.WAL.Enabled {
		// The WAL counter is cumulative across restarts, matching the
		// covering counter /v1/partial reports on durable workers.
		app = st.WAL.AppliedUpdates
	}
	sh.observe(app)
}

// observe records a reachable shard's applied counter; one below the
// held partial's (a restart without a WAL) drops that partial.
func (sh *shardRef) observe(applied uint64) {
	sh.up.Store(true)
	sh.applied.Store(applied)
	if h := sh.held.Load(); h != nil && applied < h.Applied {
		sh.held.CompareAndSwap(h, nil)
	}
}

// markDown records the shard unreachable and drops its held partial.
func (sh *shardRef) markDown() {
	sh.up.Store(false)
	sh.held.Store(nil)
}

// hold keeps p when it is newer than the held partial.
func (sh *shardRef) hold(p *client.Partial) {
	for {
		cur := sh.held.Load()
		if cur != nil && cur.Applied >= p.Applied || sh.held.CompareAndSwap(cur, p) {
			return
		}
	}
}

// subBatch is one shard's share of a client batch: its POST
// /v1/update body, built once so every retry resends identical bytes,
// and the number of updates in it.
type subBatch struct {
	body []byte
	n    int
}

// subBatches partitions one decoded client batch into per-shard
// sub-batches: anchor updates go to their owning shard (owners[i] >= 0),
// every other relation's updates broadcast to all shards (owners[i] <
// 0). raws are the client's update objects as it wrote them; a
// sub-batch body is {"updates":[ + its objects, in order, joined by
// commas + ]}, so the shard decodes exactly what the client sent and
// nothing is re-encoded.
func (rt *Router) subBatches(raws [][]byte, owners []int) []subBatch {
	out := make([]subBatch, len(rt.shards))
	add := func(s int, raw []byte) {
		sb := &out[s]
		if sb.n == 0 {
			sb.body = append(sb.body, `{"updates":[`...)
		} else {
			sb.body = append(sb.body, ',')
		}
		sb.body = append(sb.body, raw...)
		sb.n++
	}
	for i, raw := range raws {
		if owners[i] >= 0 {
			add(owners[i], raw)
			continue
		}
		for s := range out {
			add(s, raw)
		}
	}
	for s := range out {
		if out[s].n > 0 {
			out[s].body = append(out[s].body, "]}"...)
		}
	}
	return out
}

// shardError classifies one shard's write failure for the aggregate
// response and the 503 envelope's retry detail.
type shardError struct {
	id  int
	err error
	// attempts counts the requests actually sent to the shard (0 means
	// the circuit breaker failed the write fast without touching the
	// network); exhausted marks a retryable failure that ran out of
	// retry budget rather than hitting a terminal rejection.
	attempts  int
	exhausted bool
}

// fanOutWrite sends every non-empty sub-batch concurrently with wait=1
// under batchID — the ack protocol: a shard's 202 means its sub-batch
// is applied, published, and (when WAL-enabled) logged. Each shard
// gets its own retry loop (writeShard), so a transient failure on one
// shard re-sends only that shard's sub-batch. Per-shard acked counters
// advance on per-shard success even when the batch fails elsewhere:
// those updates ARE durably applied, so subsequent merged reads must
// cover them.
func (rt *Router) fanOutWrite(ctx context.Context, batchID string, groups []subBatch) (perShard map[string]int, deduped int, failed []shardError) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	perShard = make(map[string]int)
	for i, g := range groups {
		if g.n == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shardRef, g subBatch) {
			defer wg.Done()
			res := rt.writeShard(ctx, sh, batchID, g)
			mu.Lock()
			defer mu.Unlock()
			if res.err != nil {
				failed = append(failed, res.shardError)
				return
			}
			deduped += res.deduped
			perShard[fmt.Sprintf("%d", sh.id)] = g.n
		}(rt.shards[i], g)
	}
	wg.Wait()
	sort.Slice(failed, func(i, j int) bool { return failed[i].id < failed[j].id })
	return perShard, deduped, failed
}

// writeShardResult is writeShard's outcome: shardError doubles as the
// failure record (err == nil on success) plus the dedup count the
// shard reported, which keeps the router's acked counter equal to the
// shard's applied counter when a retry races a delivery that actually
// landed.
type writeShardResult struct {
	shardError
	deduped int
}

// writeShard delivers one sub-batch to one shard: transport failures
// and 503s are retried with full-jitter exponential backoff until the
// retry budget (or the request deadline, whichever is sooner) runs
// out, gated by the shard's circuit breaker. 429s are never retried
// here — backpressure must reach the writing client, which owns the
// end-to-end retry policy — and other 4xx/5xx rejections are terminal.
func (rt *Router) writeShard(ctx context.Context, sh *shardRef, batchID string, g subBatch) writeShardResult {
	res := writeShardResult{shardError: shardError{id: sh.id}}
	budget := rt.cfg.RetryBudget
	if budget < 0 {
		budget = 0
	}
	deadline := time.Now().Add(budget)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	const baseBackoff = 25 * time.Millisecond
	maxBackoff := budget / 8
	if maxBackoff < baseBackoff {
		maxBackoff = baseBackoff
	}
	for attempt := 0; ; attempt++ {
		if !sh.brk.allow() {
			if res.attempts == 0 {
				res.err = fmt.Errorf("shard %d: circuit breaker open, failing fast", sh.id)
			} else {
				res.exhausted = true // breaker tripped by our own retries
			}
			return res
		}
		res.attempts++
		ack, err := sh.cli.UpdateBody(ctx, batchID, g.body, true)
		if err == nil {
			sh.brk.onSuccess()
			sh.up.Store(true)
			if ack.Partial != nil { // before acked grows, so a read of the new target finds it
				sh.hold(&client.Partial{Data: ack.Partial, Applied: ack.PartialApplied})
			}
			fresh := g.n - ack.Deduped
			if fresh < 0 {
				fresh = 0
			}
			sh.acked.Add(uint64(fresh))
			res.err = nil
			res.deduped = ack.Deduped
			return res
		}
		res.err = err
		var ae *client.APIError
		isAPI := errors.As(err, &ae)
		if !isAPI || ae.Temporary() {
			// Transport failure or 429/503: the shard is down or
			// shedding. 4xx rejections leave it up.
			sh.markDown()
		}
		retryable := !isAPI || ae.Status == http.StatusServiceUnavailable
		if !retryable {
			return res
		}
		sh.brk.onFailure()
		if ctx.Err() != nil {
			res.exhausted = true
			return res
		}
		// Full-jitter exponential backoff: uniform over (0, base<<attempt]
		// capped at budget/8, raised to the shard's Retry-After hint when
		// it gave one. Stop when the sleep would cross the deadline.
		step := baseBackoff << uint(min(attempt, 16))
		if step <= 0 || step > maxBackoff {
			step = maxBackoff
		}
		sleep := time.Duration(rand.Int63n(int64(step)) + 1)
		if ae != nil && ae.RetryAfter > sleep {
			sleep = ae.RetryAfter
		}
		if time.Now().Add(sleep).After(deadline) {
			res.exhausted = true
			return res
		}
		rt.retries.Inc()
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			res.err = ctx.Err()
			res.exhausted = true
			return res
		}
	}
}

// mergeInfo describes one merged read.
type mergeInfo struct {
	// Missing lists shards whose partial was unavailable or did not
	// cover the acked count in time (only non-empty on stale reads).
	Missing []int `json:"missing,omitempty"`
	// Acked is the total update count the router requires coverage of.
	Acked uint64 `json:"acked"`
	// Merged counts the partials that went into the model.
	Merged int `json:"merged"`
}

// gatherPartials collects every shard's partial, requiring each to
// cover the shard's acked counter (read-your-writes): the held one when
// it proves that without a request, else one polled (and held when
// newer). A shard that cannot deliver a covering partial within
// CoverWait is an error — unless allowStale, which instead reports it
// in info.Missing and merges the rest.
func (rt *Router) gatherPartials(ctx context.Context, allowStale bool) ([][]byte, *mergeInfo, error) {
	info := &mergeInfo{}
	bodies := make([][]byte, len(rt.shards))
	errs := make([]error, len(rt.shards))
	deadline := time.Now().Add(rt.cfg.CoverWait)
	var wg sync.WaitGroup
	for _, sh := range rt.shards {
		// One load: the target enforced is the coverage reported.
		target := sh.acked.Load()
		info.Acked += target
		// A held partial needs no request while the prober runs (nothing
		// else sees a shard die, restart empty or take others' writes),
		// the shard is up, and it covers target and the last observed count.
		if h := sh.held.Load(); h != nil && rt.cfg.ProbeInterval > 0 && sh.up.Load() && h.Applied >= target && h.Applied >= sh.applied.Load() {
			bodies[sh.id] = h.Data
			rt.partialsHeld.Inc()
			continue
		}
		wg.Add(1)
		go func(sh *shardRef) {
			defer wg.Done()
			// Jittered exponential backoff between polls: the first
			// re-poll comes fast (a healthy shard is usually one batch
			// behind), later ones back off to CoverWait/8 so a
			// recovering shard is not hammered for the whole window.
			delay := 5 * time.Millisecond
			maxDelay := rt.cfg.CoverWait / 8
			if maxDelay < delay {
				maxDelay = delay
			}
			for {
				p, err := sh.cli.Partial(ctx)
				if err == nil {
					sh.observe(p.Applied)
					sh.hold(p)
					if p.Applied >= target {
						bodies[sh.id] = p.Data
						errs[sh.id] = nil
						rt.partialsFetched.Inc()
						return
					}
					// The shard answered but has not yet re-applied
					// everything this router acked (it is mid-recovery);
					// covered is a matter of waiting.
					err = fmt.Errorf("shard %d applied %d of %d acked updates", sh.id, p.Applied, target)
				} else {
					sh.markDown()
				}
				errs[sh.id] = err
				if time.Now().After(deadline) {
					return
				}
				sleep := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
				if delay *= 2; delay > maxDelay {
					delay = maxDelay
				}
				select {
				case <-time.After(sleep):
				case <-ctx.Done():
					errs[sh.id] = ctx.Err()
					return
				}
			}
		}(sh)
	}
	wg.Wait()
	present := make([][]byte, 0, len(bodies))
	for i, b := range bodies {
		if errs[i] != nil {
			info.Missing = append(info.Missing, i)
			continue
		}
		present = append(present, b)
	}
	if len(info.Missing) > 0 && !allowStale {
		first := errs[info.Missing[0]]
		return nil, info, fmt.Errorf("cluster: %d of %d shards unavailable for a consistent read (shard %d: %w)", len(info.Missing), len(rt.shards), info.Missing[0], first)
	}
	info.Merged = len(present)
	return present, info, nil
}

// mergedModel gathers partials and publishes the ring-merged model.
func (rt *Router) mergedModel(ctx context.Context, allowStale bool) (fivm.Model, *mergeInfo, error) {
	t0 := time.Now()
	bodies, info, err := rt.gatherPartials(ctx, allowStale)
	if err != nil {
		return nil, info, err
	}
	readers := make([]io.Reader, len(bodies))
	for i, b := range bodies {
		readers[i] = bytes.NewReader(b)
	}
	rt.mergerMu.Lock()
	model, err := rt.merger.MergePartials(readers)
	rt.mergerMu.Unlock()
	rt.mergeLat.Observe(time.Since(t0).Seconds())
	if err != nil {
		return nil, info, fmt.Errorf("cluster: merging partials: %w", err)
	}
	return model, info, nil
}

// MergedModel returns the cluster-wide model: every shard's partial,
// each covering this router's acked writes, ring-merged into one
// result. It is the programmatic form of GET /v1/model (and what the
// equivalence tests compare against a single engine).
func (rt *Router) MergedModel(ctx context.Context) (fivm.Model, error) {
	model, _, err := rt.mergedModel(ctx, false)
	return model, err
}
