// Command fivm-serve runs the concurrent serving daemon: any F-IVM
// engine behind sharded batched ingestion and lock-free model
// snapshots, exposed over HTTP/JSON (v1 API; see docs/API.md).
//
//	POST /v1/update    ingest tuple updates (?wait=1 for read-your-writes;
//	                   429 + Retry-After when an ingest queue is over the
//	                   high-watermark)
//	GET  /v1/predict   evaluate the latest ridge model (analysis engines)
//	GET  /v1/model     the published model, rendered per engine kind
//	GET  /v1/stats     serving + maintenance counters, snapshot version and
//	                   age, per-shard queue depths, shed counts
//	GET  /v1/viewtree  the maintained view tree
//	GET  /v1/healthz   liveness + staleness
//	GET  /metrics      Prometheus text exposition of the pipeline metrics
//
// The engine kind follows the workload definition (fivm.Open):
//
//	fivm-serve -db retailer -rows 10000                    # analysis preset
//	fivm-serve -relations "R:A,B;S:B,C" \
//	           -features "A,C:cat" -label A                # analysis, custom schema
//	fivm-serve -relations "R:A,B;S:B,C" \
//	           -query "SELECT A, SUM(1) FROM R NATURAL JOIN S GROUP BY A"   # count
//	fivm-serve -relations "R:A,B;S:B,C" \
//	           -query "SELECT SUM(A * B) FROM R NATURAL JOIN S"             # float
//	fivm-serve -relations "R:A,B;S:B,C" -attrs "A,B,C"     # scalar COVAR
//	fivm-serve -relations "R:A,B;S:B,C" -engine join       # join result
//
// With -wal the daemon is durable: every coalesced update batch is
// appended to a per-shard write-ahead log before it is applied, the
// engine is checkpointed incrementally (-checkpoint-interval), and a
// restart recovers the newest valid checkpoint plus a replay of the log
// past it — tolerating a torn final record from a crash mid-append.
// -fsync picks the sync policy (always|interval|off): appends are
// unbuffered, so any policy survives a process kill; always/interval
// bound what a power loss can take. Pair one WAL directory with one
// engine configuration (the snapshot codec tag rejects a mismatch).
//
// All configuration is validated before any data is generated or
// loaded: a bad flag combination prints one error to stderr and exits
// with status 2. The daemon itself lives in internal/daemon;
// fivm-cluster -spawn runs the same code for each worker.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/daemon"
	"repro/internal/wal"
)

func main() {
	var o daemon.Options
	flag.StringVar(&o.Addr, "addr", ":8344", "HTTP listen address")
	flag.StringVar(&o.DB, "db", "", "demo database preset: retailer|favorita (overrides -relations/-features)")
	flag.IntVar(&o.Rows, "rows", 0, "fact-table rows for the preset database (0 = preset default)")
	flag.BoolVar(&o.Load, "load", true, "bulk-load the generated preset database at startup")
	flag.StringVar(&o.Engine, "engine", "", "engine kind: analysis|count|float|covar|join (default: inferred from the other flags)")
	flag.StringVar(&o.Query, "query", "", `SQL-subset query for count/float engines, e.g. "SELECT A, SUM(1) FROM R NATURAL JOIN S GROUP BY A"`)
	flag.StringVar(&o.Relations, "relations", "", `custom relations, e.g. "R:A,B;S:B,C"`)
	flag.StringVar(&o.Features, "features", "", `analysis features, e.g. "A,B:cat,C:bin=10"`)
	flag.StringVar(&o.Attrs, "attrs", "", `covar aggregate attributes, e.g. "A,B,C"`)
	flag.StringVar(&o.Label, "label", "", "ridge label attribute for analysis engines (preset default when -db is set; empty disables fitting)")
	flag.StringVar(&o.WALDir, "wal", "", "durability directory: write-ahead log + checkpoints, recovered at startup")
	flag.StringVar(&o.FsyncPolicy, "fsync", string(wal.PolicyInterval), "WAL fsync policy: always|interval|off")
	flag.DurationVar(&o.FsyncInterval, "fsync-interval", 100*time.Millisecond, "background WAL fsync period under -fsync interval")
	flag.DurationVar(&o.CheckpointInterval, "checkpoint-interval", time.Minute, "incremental checkpoint period with -wal (<0 disables; a final checkpoint is still written on shutdown)")
	flag.Int64Var(&o.SegmentBytes, "segment-bytes", 64<<20, "WAL segment rotation size")
	flag.IntVar(&o.MaxBatch, "max-batch", 8192, "max raw updates coalesced into one delta batch")
	flag.IntVar(&o.ChannelCap, "chan-cap", 256, "per-relation ingest channel capacity")
	flag.IntVar(&o.HighWatermark, "high-watermark", 0, "ingest queue depth at which /v1/update sheds with 429 (0 = chan-cap)")
	flag.IntVar(&o.DedupCap, "dedup-cap", 0, "idempotency dedup table capacity in recently seen batch groups (0 = 8192)")
	flag.BoolVar(&o.Trace, "trace", false, "log one structured line per batch and per snapshot publish")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version())
		return
	}

	// Fail on a bad flag combination before generating or loading any
	// data, with the same error text the daemon's own layers produce.
	if err := o.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "fivm-serve: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := daemon.Run(ctx, o); err != nil {
		log.Fatal(err)
	}
}
