// Package daemon is the embeddable fivm-serve process: resolving an
// engine configuration from CLI-style options, wiring durability and the
// serving pipeline, and running the HTTP server until the context ends.
//
// Options.RegisterFlags is the one flag set of both serving binaries:
// cmd/fivm-serve is that set plus -addr and -version, a cmd/fivm-cluster
// worker the same set and the same Run — one code path defines what a
// worker is.
package daemon

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/fivm"
	"repro/internal/serve"
	"repro/internal/value"
	"repro/internal/wal"
)

// Options configures the daemon. RegisterFlags binds every field but
// Addr and Logf to one flag, whose help text documents the field. The
// zero value is invalid; fill in at least DB or Relations. See
// Validate.
type Options struct {
	// Addr is the HTTP listen address, e.g. ":8344".
	Addr string

	// The preset flags -db, -rows and -load.
	DB   string
	Rows int
	Load bool
	// The engine flags -engine, -query, -relations, -features, -attrs, -label.
	Engine, Query, Relations, Features, Attrs, Label string
	// The worker flags -wal, -fsync, -fsync-interval, -checkpoint-interval,
	// -segment-bytes, -max-batch, -chan-cap, -high-watermark, -dedup-cap, -trace.
	WALDir, FsyncPolicy                           string
	FsyncInterval, CheckpointInterval             time.Duration
	SegmentBytes                                  int64
	MaxBatch, ChannelCap, HighWatermark, DedupCap int
	Trace                                         bool

	// Logf receives progress lines; nil selects log.Printf.
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// ServeConfig maps the pipeline options onto a serve.Config (without
// the WAL, which Run opens itself).
func (o Options) ServeConfig() serve.Config {
	return serve.Config{
		MaxBatch:           o.MaxBatch,
		ChannelCap:         o.ChannelCap,
		HighWatermark:      o.HighWatermark,
		DedupCap:           o.DedupCap,
		CheckpointInterval: o.CheckpointInterval,
	}
}

// Validate reports the first configuration error Run would hit, without
// opening the engine, starting the pipeline, or touching disk. Errors
// carry exactly the text the underlying layer produces — a bad pipeline
// knob fails with serve.Config.Validate's message, a bad schema with
// the parser's — so front-ends can print them verbatim before starting.
func (o Options) Validate() error {
	if _, _, err := o.EngineConfig(); err != nil {
		return err
	}
	// An invalid policy is a bad flag even without -wal: a typo must not
	// silently pass and then bite when the directory is added later.
	switch wal.Policy(o.FsyncPolicy) {
	case "", wal.PolicyAlways, wal.PolicyInterval, wal.PolicyOff:
	default:
		return fmt.Errorf("bad -fsync policy %q (want always|interval|off)", o.FsyncPolicy)
	}
	return o.ServeConfig().Validate()
}

// EngineConfig resolves the engine configuration and initial bulk-load
// data from the options (see BuildEngineConfig).
func (o Options) EngineConfig() (fivm.Config, map[string][]value.Tuple, error) {
	return BuildEngineConfig(o.DB, o.Rows, o.Load, o.Engine, o.Query, o.Relations, o.Features, o.Attrs, o.Label)
}

// Run opens the engine, recovers durability state, and serves HTTP on
// o.Addr until ctx is cancelled, then shuts down gracefully (draining
// accepted updates and, with a WAL, writing a final checkpoint).
func Run(ctx context.Context, o Options) error {
	cfg, initData, err := o.EngineConfig()
	if err != nil {
		return err
	}
	eng, err := fivm.Open(cfg)
	if err != nil {
		return err
	}
	var w *wal.WAL
	if o.WALDir != "" {
		w, err = wal.Open(wal.Config{
			Dir:           o.WALDir,
			Fsync:         wal.Policy(o.FsyncPolicy),
			FsyncInterval: o.FsyncInterval,
			SegmentBytes:  o.SegmentBytes,
		})
		if err != nil {
			return err
		}
		defer w.Close()
	}
	// Preset bulk-load only on a cold start: once a checkpoint exists it
	// already contains the loaded data (the boot checkpoint below
	// guarantees one after the first start).
	if initData != nil && (w == nil || w.Checkpoint() == nil) {
		if err := eng.Init(initData); err != nil {
			return err
		}
		o.logf("loaded %d relations", len(initData))
	}
	if w != nil {
		info, err := serve.Recover(eng, w)
		if err != nil {
			return fmt.Errorf("recovering %s: %w", o.WALDir, err)
		}
		o.logf("recovered from %s: checkpoint seq=%d (%d updates), replayed %d batches (%d updates)",
			o.WALDir, info.CheckpointSeq, info.CheckpointUpdates, info.ReplayedBatches, info.ReplayedUpdates)
	}

	scfg := o.ServeConfig()
	scfg.WAL = w
	if o.Trace {
		scfg.TraceLog = log.New(os.Stderr, "trace ", log.LstdFlags|log.Lmicroseconds)
	}
	srv, err := serve.New(eng, scfg)
	if err != nil {
		return err
	}
	if w != nil {
		// Boot checkpoint: makes the recovered (and possibly just
		// bulk-loaded) state the durable baseline and lets replayed
		// segments be pruned right away.
		if err := srv.Checkpoint(); err != nil {
			return fmt.Errorf("boot checkpoint: %w", err)
		}
	}

	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		srv.Close()
		return err
	}
	httpSrv := &http.Server{Handler: serve.NewHandler(srv)}
	serveErr := make(chan error, 1)
	go func() {
		o.logf("fivm-serve listening on %s (engine=%s, snapshot v%d, count=%v)",
			ln.Addr(), srv.Kind(), srv.Snapshot().Version, srv.Snapshot().Count())
		serveErr <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	o.logf("shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		o.logf("http shutdown: %v", err)
	}
	if err := srv.Close(); err != nil { // drains every accepted update; with a WAL, writes the final checkpoint
		o.logf("server close: %v", err)
	}
	st := srv.Stats()
	o.logf("done: %d updates ingested, %d batches, %d snapshots", st.Ingested, st.Batches, st.Snapshots)
	return nil
}
