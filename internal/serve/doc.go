// Package serve is the concurrent serving layer over any fivm engine:
// continuous ingestion of tuple updates on the write path, lock-free
// model reads on the read path.
//
// The F-IVM engines are single-writer by design — every view update
// mutates shared state. serve keeps that invariant while exposing the
// paper's promise (fresh models under a high-velocity update stream) as
// a service:
//
//   - IngestBatch accepts tuple updates from any number of goroutines
//     and routes them through per-relation sharded channels. It is the
//     one admission path: validation, shedding, counting and the sends
//     live there; Ingest is IngestBatch without a batch ID, and an ID
//     only adds the dedup-table lookup.
//   - One batcher goroutine per relation drains its channel and feeds
//     the raw updates straight into the engine's delta build
//     (BuildDelta merges same-tuple updates under the ring addition as
//     it goes — an insert and a delete of one tuple cancel before any
//     view work — so no separate coalescing pass runs). Delta building
//     happens off the maintenance thread.
//   - A single writer goroutine applies delta batches to the engine
//     and after each applied round publishes an immutable Snapshot (a
//     deep fivm.Model clone + counters) through an atomic.Pointer.
//     ApplyBuilt runs on that goroutine alone; more cores serve more
//     shards behind a cluster router (internal/cluster), not one
//     engine.
//
// Readers call Snapshot and work against that immutable value: Model
// reads, Predict, and Stats never take a lock, never block behind
// ingestion, and never observe a half-applied batch.
//
// # Key invariants
//
//   - Exactly one goroutine (the writer) mutates the engine; batchers
//     only call BuildDelta, which reads immutable tree metadata.
//   - Every published Snapshot is a deep copy sharing nothing mutable
//     with the engine.
//   - Updates to one relation are applied in ingest order; updates to
//     different relations may interleave, which cannot change the
//     final state (delta application commutes across relations).
//
// The pipeline is engine-agnostic: it hosts whatever fivm.Open returns
// through fivm.AnyEngine, relying only on that interface's concurrency
// contract — so one daemon binary hosts count, float-SUM, COVAR, and
// full analysis workloads alike.
//
// Steady-state ingestion is allocation-lean: each shard's batcher
// reuses one per-flush update buffer (BuildDelta does not retain its
// argument and batches carry only the prebuilt delta), so a flush
// allocates nothing for the update slice — only the list of done
// channels, which escapes to the writer, is fresh per round.
// batcher_test.go pins this with testing.AllocsPerRun; docs/PERF.md
// documents the repository-wide scratch-buffer contract.
//
// Completion needs no goroutine per request: each relation group of a
// call carries its own done channel, which the writer closes after the
// publish that covers it (for an identified group the same channel is
// its dedup entry's). A single-group call returns that channel itself;
// only a call spanning several relations starts one goroutine to join
// its groups' channels.
//
// # Observability
//
// Every stage of the write path is instrumented with internal/obs
// metrics and exposed as Prometheus text exposition via
// Server.WriteMetrics (GET /metrics on the HTTP surface): ingest queue
// depth/capacity per shard, batch size and batcher wait, per-stage
// latency histograms for delta build, apply, and snapshot publish,
// snapshot version and age, and per-route HTTP latency/status
// counters. The instrumentation follows the same zero-allocation
// discipline as the pipeline itself — all series are pre-registered at
// construction and hot-path recording is atomic-only (pinned by
// TestPipelineInstrumentationAllocFree). Config.TraceLog optionally
// emits one structured line per batch and per publish carrying the
// same spans (wait/build/apply, publish duration).
//
// # Durability
//
// With Config.WAL set, each batcher appends its raw batch to the
// shard's write-ahead log (internal/wal) after BuildDelta succeeds and
// before the hand-off to the writer. Since done channels only close
// after the writer publishes, acknowledged implies logged. The writer privately tracks the per-shard log positions it
// has applied; Checkpoint (and the Config.CheckpointInterval loop, and
// Close) snapshots the engine together with those positions inside one
// Sync round — a consistent cut — so recovery (Recover) restores the
// checkpoint and replays only the log past it. A WAL append failure
// poisons the pipeline fail-stop: the error is sticky, Ingest and Sync
// return ErrCrashed, unacknowledged done channels never close, no
// further checkpoint is written, and Close skips the final checkpoint —
// a restart recovers exactly the acknowledged prefix.
//
// # Admission control
//
// IngestBatch (and so Ingest) sheds load instead of blocking once any
// target shard's queue reaches Config.HighWatermark (default: channel
// capacity): it returns *OverloadError without enqueueing anything —
// all-or-nothing, so a multi-relation batch is never partially
// admitted — and the HTTP layer maps that to 429 with a Retry-After
// header. Shed counts are
// reported by Stats, /v1/stats, /v1/healthz, and /metrics. The check is
// advisory under concurrency (two racing ingests may both pass and one
// then block briefly on the channel send), which keeps the admission
// path lock-free.
package serve
