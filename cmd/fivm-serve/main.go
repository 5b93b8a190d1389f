// Command fivm-serve runs the concurrent serving daemon: any F-IVM
// engine behind sharded batched ingestion and lock-free model
// snapshots, exposed over HTTP/JSON (v1 API; see docs/API.md).
//
//	POST /v1/update    ingest tuple updates (?wait=1 for read-your-writes;
//	                   429 + Retry-After when an ingest queue is full)
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
//
// -relations alone names no workload and is refused at start-up.
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
// with status 2. The daemon and every flag but -addr and -version live
// in internal/daemon; each fivm-cluster worker is the same flag set and
// the same code.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/buildinfo"
	"repro/internal/daemon"
)

func main() {
	var o daemon.Options
	o.RegisterFlags(flag.CommandLine)
	flag.StringVar(&o.Addr, "addr", ":8344", "HTTP listen address")
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
