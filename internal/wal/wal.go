package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Policy selects when appended records are fsynced. See the package
// documentation for what each policy guarantees.
type Policy string

const (
	// PolicyAlways fsyncs after every append, before the batch is
	// handed on: acknowledged means on stable storage.
	PolicyAlways Policy = "always"
	// PolicyInterval fsyncs dirty shards from a background goroutine
	// every FsyncInterval; the appender itself never blocks on fsync.
	PolicyInterval Policy = "interval"
	// PolicyOff never fsyncs: durability against process crash only.
	PolicyOff Policy = "off"
)

// Config opens a WAL directory.
type Config struct {
	// Dir is the durability directory (created if missing).
	Dir string
	// Fsync is the sync policy (default PolicyInterval).
	Fsync Policy
	// FsyncInterval is the background sync period under PolicyInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates a shard's segment once it would exceed this
	// size (default 64 MiB). A single batch larger than the limit still
	// lands whole in a fresh segment.
	SegmentBytes int64
	// OpenSegment overrides how segment files are opened for append —
	// the fault-injection seam crash tests use to tear a write
	// mid-record. nil opens through the OS. Recovery always reads the
	// real files, so an injected partial write becomes a real torn tail.
	OpenSegment func(path string) (WriteFile, error)
}

func (c Config) withDefaults() (Config, error) {
	if c.Dir == "" {
		return c, fmt.Errorf("wal: Dir is required")
	}
	if c.Fsync == "" {
		c.Fsync = PolicyInterval
	}
	switch c.Fsync {
	case PolicyAlways, PolicyInterval, PolicyOff:
	default:
		return c, fmt.Errorf("wal: unknown fsync policy %q (want %s|%s|%s)", c.Fsync, PolicyAlways, PolicyInterval, PolicyOff)
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 64 << 20
	}
	if c.OpenSegment == nil {
		c.OpenSegment = func(path string) (WriteFile, error) {
			return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		}
	}
	return c, nil
}

// Positions stamps a checkpoint with the log state it covers.
type Positions struct {
	// Shards maps each relation to the sequence number of the last
	// batch included; 0 means none.
	Shards map[string]uint64
	// Applied is the cumulative count of raw updates the included
	// batches represent (monotonic across restarts).
	Applied uint64
	// Batches is the cumulative batch count (monotonic across restarts).
	Batches uint64
}

// Clone returns a copy of p that shares no map with it.
func (p Positions) Clone() Positions {
	out := p
	out.Shards = make(map[string]uint64, len(p.Shards))
	for k, v := range p.Shards {
		out.Shards[k] = v
	}
	return out
}

// Stats are the WAL's live counters, safe to read concurrently with
// appends (the metric surface scrapes them).
type Stats struct {
	// AppendedBatches and AppendedBytes count records appended this
	// process (replayed history not included).
	AppendedBatches uint64
	AppendedBytes   uint64
	// Segments is the number of live segment files across all shards.
	Segments int64
	// CheckpointSeq is the newest valid checkpoint's sequence number
	// (0 when none).
	CheckpointSeq uint64
	// TruncatedBytes and RemovedSegments report what Open discarded as
	// torn or unreachable (corruption past the valid prefix).
	TruncatedBytes  uint64
	RemovedSegments int64
}

// WAL is one durability directory: per-shard segment logs plus
// checkpoints. Open it, recover through Checkpoint/Replay, then append
// through per-shard handles. Appends on different shards never contend.
type WAL struct {
	cfg Config

	mu     sync.Mutex
	shards map[string]*Shard
	closed bool
	cp     *CheckpointInfo
	cpSeq  uint64 // highest checkpoint file seq ever seen (valid or not)
	// recovered tracks what checkpoint restore + replay have covered so
	// far; the serving writer seeds its positions from it.
	recovered Positions
	// recoveredRefs collects the batch refs Replay decoded (bounded to
	// maxRecoveredRefs, oldest dropped); the serving layer seeds its
	// dedup table from them.
	recoveredRefs []RecoveredRef

	appendedBatches atomic.Uint64
	appendedBytes   atomic.Uint64
	segLive         atomic.Int64
	truncatedBytes  atomic.Uint64
	removedSegments atomic.Int64
	cpSeqLive       atomic.Uint64
	cpAt            atomic.Int64 // unixnano of the newest checkpoint (or Open)

	// fsyncObs, when set (before appends start), observes each fsync
	// latency in seconds — the serving layer wires it to a histogram.
	fsyncObs func(seconds float64)

	stop    chan struct{}
	stopped sync.WaitGroup
}

// formatError is an intact file of a format or version this build does
// not write. Open refuses the directory on one, before it truncates or
// removes anything: taken for torn, it would be skipped or deleted with
// the updates it holds.
type formatError struct{ path, msg string }

func (e *formatError) Error() string { return fmt.Sprintf("wal: %s: %s", e.path, e.msg) }

// Open opens (creating if needed) the WAL directory, selects the newest
// valid checkpoint, and truncates every shard's log at the first
// invalid record — the crash-recovery cleanup that makes the remaining
// log a clean, contiguous prefix. The caller then restores the
// checkpoint, replays, and appends. A checkpoint or segment of another
// format version fails Open and leaves the directory as it was.
func Open(cfg Config) (*WAL, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, shardsDirName), 0o755); err != nil {
		return nil, err
	}
	w := &WAL{cfg: cfg, shards: make(map[string]*Shard), recovered: Positions{Shards: map[string]uint64{}}}
	w.cp, w.cpSeq, err = scanCheckpoints(cfg.Dir)
	if err != nil {
		return nil, err
	}
	w.cpAt.Store(time.Now().UnixNano())
	if w.cp != nil {
		w.recovered = w.cp.Positions.Clone()
		w.cpSeqLive.Store(w.cp.Seq)
		if fi, err := os.Stat(w.cp.Path); err == nil {
			w.cpAt.Store(fi.ModTime().UnixNano())
		}
	}
	entries, err := os.ReadDir(filepath.Join(cfg.Dir, shardsDirName))
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			if err := checkSegmentFormats(filepath.Join(cfg.Dir, shardsDirName, e.Name())); err != nil {
				return nil, err
			}
		}
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		s, err := w.openShard(e.Name())
		if err != nil {
			return nil, fmt.Errorf("wal: shard %s: %w", e.Name(), err)
		}
		w.shards[e.Name()] = s
	}
	if cfg.Fsync == PolicyInterval {
		w.stop = make(chan struct{})
		w.stopped.Add(1)
		go w.fsyncLoop()
	}
	return w, nil
}

// Shard returns (creating if needed) the append handle for one
// ingestion shard. Shard handles are safe for concurrent use, but the
// serving pipeline gives each one a single appending goroutine.
func (w *WAL) Shard(rel string) (*Shard, error) {
	if err := validShardName(rel); err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.shards[rel]; ok {
		return s, nil
	}
	dir := filepath.Join(w.cfg.Dir, shardsDirName, rel)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Shard{w: w, rel: rel, dir: dir, nextSeq: 1, buf: make([]byte, recordHeaderLen, 1024)}
	w.shards[rel] = s
	return s, nil
}

func validShardName(rel string) error {
	if rel == "" || rel == "." || rel == ".." ||
		strings.ContainsAny(rel, "/\\\x00") || strings.HasPrefix(rel, ".") {
		return fmt.Errorf("wal: relation name %q is not usable as a shard directory", rel)
	}
	return nil
}

// Checkpoint returns the newest valid checkpoint found at Open or
// written since, nil when none exists yet.
func (w *WAL) Checkpoint() *CheckpointInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cp
}

// RecoveredPositions returns the positions covered by the restored
// checkpoint plus everything Replay has fed to the caller — the seed
// for the serving writer's live position tracking.
func (w *WAL) RecoveredPositions() Positions {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recovered.Clone()
}

// RecoveredBatchRefs returns the batch IDs Replay found recorded in
// the replayed log, in replay order (per shard, ascending sequence) —
// the seed for the serving layer's idempotency dedup table. Refs in
// batches a checkpoint already pruned are gone; that is the recovery
// dedup window's lower bound, and routers must not retry a batch older
// than the checkpoint cadence.
func (w *WAL) RecoveredBatchRefs() []RecoveredRef {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]RecoveredRef, len(w.recoveredRefs))
	copy(out, w.recoveredRefs)
	return out
}

// SetFsyncObserver installs a callback receiving each fsync's latency
// in seconds. Install it before appends start; it is read without
// synchronization on the append path.
func (w *WAL) SetFsyncObserver(fn func(seconds float64)) { w.fsyncObs = fn }

// CheckpointAge is the time since the newest checkpoint was written
// (or since Open, when none exists) — the "data at risk" staleness
// signal exposed as fivm_wal_checkpoint_age_seconds.
func (w *WAL) CheckpointAge() time.Duration {
	return time.Duration(time.Now().UnixNano() - w.cpAt.Load())
}

// Stats returns the live counters.
func (w *WAL) Stats() Stats {
	return Stats{
		AppendedBatches: w.appendedBatches.Load(),
		AppendedBytes:   w.appendedBytes.Load(),
		Segments:        w.segLive.Load(),
		CheckpointSeq:   w.cpSeqLive.Load(),
		TruncatedBytes:  w.truncatedBytes.Load(),
		RemovedSegments: w.removedSegments.Load(),
	}
}

// shardList snapshots the shard handles for the background fsync loop.
func (w *WAL) shardList() []*Shard {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*Shard, 0, len(w.shards))
	for _, s := range w.shards {
		out = append(out, s)
	}
	return out
}

// shardNames returns the shard names sorted, for deterministic replay.
func (w *WAL) shardNames() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.shards))
	for name := range w.shards {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (w *WAL) fsyncLoop() {
	defer w.stopped.Done()
	t := time.NewTicker(w.cfg.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			for _, s := range w.shardList() {
				_ = s.Sync() // sticky error resurfaces on the next AppendRefs
			}
		}
	}
}

// Close stops the background fsync loop, syncs every dirty shard
// (unless PolicyOff), and closes the segment files. The WAL refuses
// all writes afterwards: appends fail through the closed files, and
// WriteCheckpoint fails explicitly — a checkpoint written after the
// log is closed could cover batches whose segments can no longer be
// read back, silently discarding the dedup trailers recovery needs.
func (w *WAL) Close() error {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	if w.stop != nil {
		close(w.stop)
		w.stopped.Wait()
		w.stop = nil
	}
	var first error
	for _, s := range w.shardList() {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
