package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/fivm/client"
	"repro/internal/obs"
)

// LoadgenConfig drives RunLoadgen against a live fivm-serve or
// fivm-cluster instance.
type LoadgenConfig struct {
	// URL is the server's base URL, e.g. http://localhost:8344.
	URL string
	// Duration is how long to generate load.
	Duration time.Duration
	// Concurrency is the number of client goroutines.
	Concurrency int
	// WriteRatio in [0,1] is the fraction of requests that are
	// POST /v1/update; the rest are GET /v1/model reads.
	WriteRatio float64
	// BatchSize is the number of tuples per write request.
	BatchSize int
	// Seed makes the generated tuple stream reproducible.
	Seed int64
	// Retries bounds client-side retries per request. 0, the default,
	// disables them so a shed write counts as a 429 in the report and
	// a dropped connection as an error. The chaos harness turns this
	// up: every write carries a batch ID the server deduplicates, so
	// retried deliveries are absorbed exactly-once and injected faults
	// surface as retries, not report errors.
	Retries int
}

func (c LoadgenConfig) withDefaults() (LoadgenConfig, error) {
	if c.URL == "" {
		return c, fmt.Errorf("loadgen: URL is required")
	}
	if c.WriteRatio < 0 || c.WriteRatio > 1 {
		return c, fmt.Errorf("loadgen: write ratio %v outside [0,1]", c.WriteRatio)
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	return c, nil
}

// LatencySummary is the client-observed latency distribution of one
// request class, quantiles computed exactly over all samples.
type LatencySummary struct {
	Count  int     `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  int64   `json:"p50_ns"`
	P99NS  int64   `json:"p99_ns"`
	P999NS int64   `json:"p999_ns"`
	MaxNS  int64   `json:"max_ns"`
}

// LoadgenReport is the machine-readable result of one loadgen run.
type LoadgenReport struct {
	URL             string         `json:"url"`
	DurationSeconds float64        `json:"duration_seconds"`
	Concurrency     int            `json:"concurrency"`
	WriteRatio      float64        `json:"write_ratio"`
	BatchSize       int            `json:"batch_size"`
	Requests        uint64         `json:"requests"`
	Writes          uint64         `json:"writes"`
	Reads           uint64         `json:"reads"`
	Errors          uint64         `json:"errors"`
	StatusCounts    map[string]int `json:"status_counts"`
	ThroughputRPS   float64        `json:"throughput_rps"`
	UpdatesSent     uint64         `json:"updates_sent"`
	WriteLatency    LatencySummary `json:"write_latency"`
	ReadLatency     LatencySummary `json:"read_latency"`
	// ServerIngested/ServerShed come from the final GET /v1/stats, as do
	// the ServerWAL* durability counters (all zero when the server runs
	// without -wal).
	ServerIngested           uint64 `json:"server_ingested"`
	ServerShed               uint64 `json:"server_shed"`
	ServerWALEnabled         bool   `json:"server_wal_enabled"`
	ServerWALAppendedBatches uint64 `json:"server_wal_appended_batches"`
	ServerWALAppendedBytes   uint64 `json:"server_wal_appended_bytes"`
	ServerWALSegments        int64  `json:"server_wal_segments"`
	ServerWALCheckpointSeq   uint64 `json:"server_wal_checkpoint_seq"`
	ServerWALRecovered       uint64 `json:"server_wal_recovered_updates"`
	// MetricsValid reports whether the final GET /metrics parsed as
	// Prometheus text exposition; MetricsSeries counts its samples.
	MetricsValid  bool   `json:"metrics_valid"`
	MetricsSeries int    `json:"metrics_series"`
	MetricsError  string `json:"metrics_error,omitempty"`
}

// RunLoadgen drives mixed read/write traffic against a live server and
// reports client-side latency quantiles plus a server-side consistency
// check (final /v1/stats counters and /metrics parseability). Relations
// and their arities are discovered from GET /v1/stats, so the same
// loadgen works against any hosted engine — or against a cluster
// router, which reports the same shards object. It rides the public
// fivm/client package with retries disabled by default: a shed write
// must count as a 429 in the report, not silently succeed on retry.
// See LoadgenConfig.Retries for the chaos-harness mode.
func RunLoadgen(cfg LoadgenConfig) (*LoadgenReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	cli := client.New(strings.TrimRight(cfg.URL, "/"),
		client.WithHTTPClient(&http.Client{Timeout: 30 * time.Second}),
		client.WithRetries(cfg.Retries))

	rels, err := discoverRelations(ctx, cli)
	if err != nil {
		return nil, err
	}

	type worker struct {
		writeNS, readNS []int64
		updates         uint64
		errors          uint64
		statuses        map[int]int
	}
	workers := make([]worker, cfg.Concurrency)
	var wg sync.WaitGroup
	var stop atomic.Bool
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			me := &workers[w]
			me.statuses = make(map[int]int)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			batch := make([]client.Update, 0, cfg.BatchSize)
			for !stop.Load() {
				if rng.Float64() < cfg.WriteRatio {
					rel := rels[rng.Intn(len(rels))]
					batch = randomBatch(batch[:0], rng, rel.name, rel.arity, cfg.BatchSize)
					t0 := time.Now()
					_, err := cli.Update(ctx, batch, false)
					ns := time.Since(t0).Nanoseconds()
					status, ok := statusOf(err, http.StatusAccepted)
					if !ok {
						me.errors++
						continue
					}
					me.writeNS = append(me.writeNS, ns)
					me.statuses[status]++
					if status == http.StatusAccepted {
						me.updates += uint64(cfg.BatchSize)
					}
				} else {
					t0 := time.Now()
					_, err := cli.Model(ctx)
					ns := time.Since(t0).Nanoseconds()
					status, ok := statusOf(err, http.StatusOK)
					if !ok {
						me.errors++
						continue
					}
					me.readNS = append(me.readNS, ns)
					me.statuses[status]++
				}
			}
		}(w)
	}
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadgenReport{
		URL:             cfg.URL,
		DurationSeconds: elapsed.Seconds(),
		Concurrency:     cfg.Concurrency,
		WriteRatio:      cfg.WriteRatio,
		BatchSize:       cfg.BatchSize,
		StatusCounts:    make(map[string]int),
	}
	var writeNS, readNS []int64
	for i := range workers {
		w := &workers[i]
		writeNS = append(writeNS, w.writeNS...)
		readNS = append(readNS, w.readNS...)
		rep.UpdatesSent += w.updates
		rep.Errors += w.errors
		for code, n := range w.statuses {
			rep.StatusCounts[fmt.Sprintf("%d", code)] += n
		}
	}
	rep.Writes = uint64(len(writeNS))
	rep.Reads = uint64(len(readNS))
	rep.Requests = rep.Writes + rep.Reads
	rep.ThroughputRPS = float64(rep.Requests) / elapsed.Seconds()
	rep.WriteLatency = summarize(writeNS)
	rep.ReadLatency = summarize(readNS)

	// Server-side consistency: final counters and a /metrics scrape that
	// must parse as exposition format.
	if st, err := cli.Stats(ctx); err == nil {
		rep.ServerIngested, rep.ServerShed = st.Ingested, st.Shed
		rep.ServerWALEnabled = st.WAL.Enabled
		rep.ServerWALAppendedBatches = st.WAL.AppendedBatches
		rep.ServerWALAppendedBytes = st.WAL.AppendedBytes
		rep.ServerWALSegments = int64(st.WAL.Segments)
		rep.ServerWALCheckpointSeq = st.WAL.CheckpointSeq
		rep.ServerWALRecovered = st.WAL.RecoveredUpdates
	}
	text, err := cli.Metrics(ctx)
	if err != nil {
		rep.MetricsError = err.Error()
	} else {
		samples, perr := obs.ParseExposition(strings.NewReader(text))
		if perr != nil {
			rep.MetricsError = perr.Error()
		} else {
			rep.MetricsValid = true
			rep.MetricsSeries = len(samples)
		}
	}
	return rep, nil
}

// statusOf maps a client result to an HTTP status for the report's
// status accounting: nil errors report the route's success code,
// APIErrors carry the server's status, transport failures report
// not-ok.
func statusOf(err error, success int) (status int, ok bool) {
	if err == nil {
		return success, true
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Status, true
	}
	return 0, false
}

type relation struct {
	name  string
	arity int
}

// discoverRelations reads GET /v1/stats and extracts each shard's name
// and arity.
func discoverRelations(ctx context.Context, cli *client.Client) ([]relation, error) {
	st, err := cli.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: discovering relations: %w", err)
	}
	if len(st.Shards) == 0 {
		return nil, fmt.Errorf("loadgen: /v1/stats reports no shards — is this a fivm instance?")
	}
	rels := make([]relation, 0, len(st.Shards))
	for name, sh := range st.Shards {
		rels = append(rels, relation{name: name, arity: sh.Arity})
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].name < rels[j].name })
	return rels, nil
}

// randomBatch appends n random integer inserts for rel to batch. A
// small value domain (64 per column) keeps join keys overlapping so
// updates exercise real view maintenance, not just inserts into
// disjoint groups.
func randomBatch(batch []client.Update, rng *rand.Rand, rel string, arity, n int) []client.Update {
	for i := 0; i < n; i++ {
		tuple := make([]any, arity)
		for j := range tuple {
			tuple[j] = rng.Intn(64)
		}
		batch = append(batch, client.Update{Rel: rel, Tuple: tuple})
	}
	return batch
}

// summarize computes exact quantiles over the collected samples.
func summarize(ns []int64) LatencySummary {
	if len(ns) == 0 {
		return LatencySummary{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	at := func(q float64) int64 {
		i := int(q * float64(len(ns)-1))
		return ns[i]
	}
	return LatencySummary{
		Count:  len(ns),
		MeanNS: sum / float64(len(ns)),
		P50NS:  at(0.50),
		P99NS:  at(0.99),
		P999NS: at(0.999),
		MaxNS:  ns[len(ns)-1],
	}
}
