package serve

import (
	"io"
	"sort"
	"time"

	"repro/fivm"
	"repro/internal/obs"
)

// codeClasses label HTTP status counters; a response's class is
// status/100 mapped onto this array (3xx folds into the index after
// 2xx, and anything outside 2xx–5xx clamps to 5xx).
var codeClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// pipelineMetrics is the serving pipeline's metric surface, exposed on
// GET /metrics. Counters that mirror writer-goroutine state read from
// the latest published Snapshot (immutable, so scrapes race with
// nothing); live state (ingest counts, queue depths, snapshot age)
// reads atomics or channel lengths at scrape time. Histograms are
// written from the batcher and writer goroutines directly — obs
// histograms are lock-free and allocation-free, so the hot path only
// pays a few atomic adds and time.Now calls per *batch*, not per
// update.
type pipelineMetrics struct {
	reg *obs.Registry

	// Per-flush batcher observations.
	batchRaw    *obs.Histogram // raw updates collected into one flush
	batcherWait *obs.Histogram // queue wait of the flush's oldest message
	// Per-stage latency: delta build (batcher goroutine), delta apply
	// and snapshot publish (writer goroutine), and ridge fit (fitter
	// goroutine or a reader; analysis engines with a label only).
	stageBuild   *obs.Histogram
	stageApply   *obs.Histogram
	stagePublish *obs.Histogram
	stageFit     *obs.Histogram
	// Conjugate-gradient steps of each finished ridge fit (analysis
	// engines with a label; other kinds never observe).
	ridgeIters *obs.Histogram

	httpLat   map[string]*obs.Histogram
	httpCodes map[string]*[4]*obs.Counter
}

func newPipelineMetrics(s *Server) *pipelineMetrics {
	reg := obs.NewRegistry()
	m := &pipelineMetrics{
		reg:       reg,
		httpLat:   make(map[string]*obs.Histogram, len(routes)),
		httpCodes: make(map[string]*[4]*obs.Counter, len(routes)),
	}

	// Ingest admission: live atomics.
	reg.CounterFunc("fivm_ingest_updates_total", "",
		"Tuple updates accepted by Ingest.", s.ingested.Load)
	reg.CounterFunc("fivm_ingest_shed_updates_total", "",
		"Tuple updates rejected by admission control (target ingest queue full).", s.shed.Load)

	// Idempotency: the dedup table behind exactly-once ingest.
	reg.CounterFunc("fivm_dedup_hits_total", "",
		"Updates of replayed batch IDs answered from the dedup table instead of re-applied.",
		s.dedup.hits.Load)
	reg.GaugeFunc("fivm_dedup_entries", "",
		"Live entries in the idempotency dedup table.",
		func() float64 { return float64(s.dedup.size()) })
	reg.GaugeFunc("fivm_dedup_evicted_origins", "",
		"Client origins with an evicted high-water batch sequence number in the dedup table.",
		func() float64 { return float64(s.dedup.evictedOrigins()) })

	// Per-shard ingest queues: depth and capacity, read at scrape time.
	names := make([]string, 0, len(s.shards))
	for rel := range s.shards {
		names = append(names, rel)
	}
	sort.Strings(names)
	for _, rel := range names {
		sh := s.shards[rel]
		reg.GaugeFunc("fivm_ingest_queue_depth", `rel="`+rel+`"`,
			"Queued ingest messages per relation shard.",
			func() float64 { return float64(len(sh.ch)) })
		reg.GaugeFunc("fivm_ingest_queue_capacity", `rel="`+rel+`"`,
			"Ingest channel capacity per relation shard.",
			func() float64 { return float64(cap(sh.ch)) })
	}

	// Writer-side cumulative counters, via the immutable snapshot: the
	// writer's private fields are never read from another goroutine.
	snapStats := func() Stats { return s.snap.Load().Stats }
	reg.CounterFunc("fivm_applied_updates_total", "",
		"Ingested updates represented by applied batches.",
		func() uint64 { return snapStats().Applied })
	reg.CounterFunc("fivm_batches_total", "",
		"Delta batches applied to the engine.",
		func() uint64 { return snapStats().Batches })
	reg.CounterFunc("fivm_delta_tuples_total", "",
		"Distinct delta tuples applied after coalescing.",
		func() uint64 { return snapStats().DeltaTuples })
	reg.CounterFunc("fivm_apply_errors_total", "",
		"Failed ApplyBuilt calls.",
		func() uint64 { return snapStats().ApplyErrors })
	reg.CounterFunc("fivm_ridge_unconverged_total", "",
		"Finished ridge fits that stopped at the solver's iteration cap (served with converged=false).",
		s.unconverged.Load)
	reg.GaugeFunc("fivm_categories", "",
		"Distinct categorical and binned values in the process-wide category dictionary (admission refuses a batch with a new one once it is full).",
		func() float64 { return float64(fivm.Categories()) })
	reg.CounterFunc("fivm_snapshots_total", "",
		"Published model snapshots.",
		func() uint64 { return snapStats().Snapshots })
	reg.GaugeFunc("fivm_snapshot_version", "",
		"Version of the latest published snapshot.",
		func() float64 { return float64(s.snap.Load().Version) })
	reg.GaugeFunc("fivm_snapshot_age_seconds", "",
		"Seconds since the latest snapshot was published.",
		func() float64 { return time.Since(s.snap.Load().At).Seconds() })

	// Durability: WAL append/fsync/checkpoint surface, present only
	// when the pipeline runs with a WAL.
	if w := s.cfg.WAL; w != nil {
		reg.CounterFunc("fivm_wal_appended_batches_total", "",
			"Batches appended to the write-ahead log.",
			func() uint64 { return w.Stats().AppendedBatches })
		reg.CounterFunc("fivm_wal_appended_bytes_total", "",
			"Bytes appended to the write-ahead log.",
			func() uint64 { return w.Stats().AppendedBytes })
		reg.GaugeFunc("fivm_wal_segments", "",
			"Live WAL segment files across all shards.",
			func() float64 { return float64(w.Stats().Segments) })
		reg.GaugeFunc("fivm_wal_checkpoint_seq", "",
			"Sequence number of the newest valid checkpoint (0 = none).",
			func() float64 { return float64(w.Stats().CheckpointSeq) })
		reg.GaugeFunc("fivm_wal_checkpoint_age_seconds", "",
			"Seconds since the newest checkpoint was written (time since boot when none exists) — the replay-on-crash exposure.",
			func() float64 { return w.CheckpointAge().Seconds() })
		reg.CounterFunc("fivm_wal_recovered_updates_total", "",
			"Cumulative updates boot recovery restored (checkpoint coverage plus replayed log records).",
			func() uint64 { return s.walRecovered.Applied })
		walFsync := reg.NewHistogram("fivm_wal_fsync_seconds", "",
			"WAL fsync latency (inline under policy always, background under interval).",
			obs.LatencyBuckets())
		w.SetFsyncObserver(walFsync.Observe)
	}

	// Batch shape and stage latencies.
	m.batchRaw = reg.NewHistogram("fivm_batch_raw_updates", "",
		"Raw updates coalesced into one flushed batch (the coalescing ratio is fivm_delta_tuples_total over fivm_applied_updates_total).",
		obs.ExpBuckets(1, 2, 15))
	m.batcherWait = reg.NewHistogram("fivm_batcher_wait_seconds", "",
		"Queue wait of a flush's oldest message, ingest enqueue to batcher collect.",
		obs.LatencyBuckets())
	stageHelp := "Write-path stage latency: build (BuildDelta, batcher goroutine), apply (ApplyBuilt), publish (PublishModel + snapshot swap), fit (a snapshot's Σ and ridge refit, off the writer; analysis engines with a label only)."
	m.stageBuild = reg.NewHistogram("fivm_stage_seconds", `stage="build"`, stageHelp, obs.LatencyBuckets())
	m.stageApply = reg.NewHistogram("fivm_stage_seconds", `stage="apply"`, stageHelp, obs.LatencyBuckets())
	m.stagePublish = reg.NewHistogram("fivm_stage_seconds", `stage="publish"`, stageHelp, obs.LatencyBuckets())
	m.stageFit = reg.NewHistogram("fivm_stage_seconds", `stage="fit"`, stageHelp, obs.LatencyBuckets())

	m.ridgeIters = reg.NewHistogram("fivm_ridge_iterations", "",
		"Conjugate-gradient steps per finished ridge fit (one per fitted snapshot, off the writer).",
		obs.ExpBuckets(1, 2, 14))

	// HTTP surface, by route.
	for _, rt := range routes {
		m.httpLat[rt.path] = reg.NewHistogram("fivm_http_request_seconds", `route="`+rt.path+`"`,
			"HTTP request latency by route.", obs.LatencyBuckets())
		var cs [4]*obs.Counter
		for i, class := range codeClasses {
			cs[i] = reg.NewCounter("fivm_http_requests_total", `route="`+rt.path+`",code="`+class+`"`,
				"HTTP responses by route and status class.")
		}
		m.httpCodes[rt.path] = &cs
	}
	return m
}

// WriteMetrics renders the server's metric registry in the Prometheus
// text exposition format — the body of GET /metrics, also reachable
// directly for library embedders.
func (s *Server) WriteMetrics(w io.Writer) error { return s.met.reg.WritePrometheus(w) }
