package serve

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/view"
	"repro/internal/wal"
)

// ErrClosed is returned by IngestBatch (and so Ingest) and Sync after
// Close.
var ErrClosed = errors.New("serve: server closed")

// ErrCrashed wraps the error returned by IngestBatch and Sync after a WAL
// append failure poisoned the pipeline: nothing further is accepted or
// applied, so the durable log stays a clean prefix of the acknowledged
// stream and a restart recovers exactly what was acknowledged.
var ErrCrashed = errors.New("serve: pipeline crashed on WAL write failure")

// OverloadError is returned by IngestBatch when a target relation's ingest
// queue is full at admission time: the caller should back off and retry
// instead of blocking behind the backlog (the HTTP handler maps it to
// 429 with a Retry-After header). Every update of the rejected call
// counts into the shed statistics.
type OverloadError struct {
	// Rel is the overloaded relation.
	Rel string
	// Depth and Capacity describe its queue at admission time.
	Depth, Capacity int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: relation %s ingest queue overloaded (%d/%d queued); retry later", e.Rel, e.Depth, e.Capacity)
}

// Config tunes the ingestion pipeline.
type Config struct {
	// MaxBatch caps the number of raw updates a batcher coalesces into
	// one delta (default 8192).
	MaxBatch int
	// ChannelCap is the per-relation ingest channel capacity
	// (default 256).
	ChannelCap int
	// TraceLog, when non-nil, receives one structured line per flushed
	// batch (queue wait, build, apply spans) and per published snapshot
	// — the serving pipeline's span log, enabled by fivm-serve -trace.
	TraceLog *log.Logger
	// WAL, when non-nil, makes the pipeline durable: every coalesced
	// batch is appended to its relation's shard log before it is handed
	// to the writer, so an acknowledged update is always recoverable
	// (see Recover). The Server appends to and checkpoints the WAL but
	// does not close it — the opener does, after Close returns.
	WAL *wal.WAL
	// DedupCap bounds the idempotency dedup table: how many recently
	// seen (batch ID, relation) groups IngestBatch remembers for
	// duplicate suppression (default 8192). The bound is the retry
	// window — a duplicate older than the newest DedupCap groups is
	// refused with ErrBatchExpired (409 batch_id_expired).
	DedupCap int
	// CheckpointInterval is how often the pipeline writes an incremental
	// checkpoint when a WAL is configured (default 1m; negative disables
	// the periodic loop — Close still writes a final checkpoint).
	CheckpointInterval time.Duration
}

// Validate reports the configuration error withDefaults would reject,
// without constructing a Server. CLI front-ends validate flags through
// it before loading any data, so a bad knob fails fast with exactly the
// error text New would produce.
func (c Config) Validate() error {
	_, err := c.withDefaults()
	return err
}

// withDefaults fills zero fields and rejects nonsensical explicit
// settings: zero means "default", but a negative knob is a
// configuration bug that must fail at construction, not silently serve
// with a different value.
func (c Config) withDefaults() (Config, error) {
	switch {
	case c.MaxBatch < 0:
		return c, fmt.Errorf("serve: MaxBatch %d is negative (0 selects the default)", c.MaxBatch)
	case c.ChannelCap < 0:
		return c, fmt.Errorf("serve: ChannelCap %d is negative (0 selects the default)", c.ChannelCap)
	case c.DedupCap < 0:
		return c, fmt.Errorf("serve: DedupCap %d is negative (0 selects the default)", c.DedupCap)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8192
	}
	if c.ChannelCap == 0 {
		c.ChannelCap = 256
	}
	if c.DedupCap == 0 {
		c.DedupCap = 8192
	}
	if c.WAL != nil && c.CheckpointInterval == 0 {
		c.CheckpointInterval = time.Minute
	}
	return c, nil
}

// Stats counts serving work. View carries the engine's own maintenance
// counters.
type Stats struct {
	// Ingested is the number of tuple updates accepted by Ingest.
	Ingested uint64
	// Applied is the number of ingested updates represented by applied
	// batches (it reaches Ingested once the pipeline drains).
	Applied uint64
	// Batches is the number of delta batches applied to the engine.
	Batches uint64
	// DeltaTuples is the number of distinct delta tuples applied after
	// coalescing; Applied − DeltaTuples updates were absorbed by the
	// batcher before touching any view.
	DeltaTuples uint64
	// Snapshots is the number of published model snapshots.
	Snapshots uint64
	// ApplyErrors counts failed ApplyBuilt calls (LastError keeps the
	// most recent message).
	ApplyErrors uint64
	LastError   string
	// RidgeUnconverged counts published ridge fits that stopped at the
	// solver's iteration cap (their model says converged=false).
	RidgeUnconverged uint64
	// Shed is the number of tuple updates rejected by admission
	// control (OverloadError); like Ingested it is a live counter, not
	// snapshot-consistent.
	Shed uint64
	View view.Stats
}

// Server owns a fivm engine and runs the ingestion pipeline over
// it. Create one with New; all methods are safe for concurrent use.
type Server struct {
	eng fivm.AnyEngine
	cfg Config

	mu     sync.RWMutex // closed vs. sends on shard/exec channels
	closed bool

	shards     map[string]*shard
	batches    chan batch
	exec       chan execReq
	writerDone chan struct{}
	batchers   sync.WaitGroup

	snap     atomic.Pointer[Snapshot]
	ingested atomic.Uint64
	shed     atomic.Uint64
	met      *pipelineMetrics
	dedup    *dedupTable

	// crashed closes (once, after crashErr is set) when a WAL append
	// failure poisons the pipeline; every blocking channel operation
	// selects on it so goroutines unwind instead of deadlocking.
	crashed   chan struct{}
	crashOnce sync.Once
	crashErr  error // written once before crashed closes; read only after <-crashed

	// walPos is the writer-private WAL position watermark (checkpoint
	// restore + replay + every batch applied since); walApplied and
	// walBatches mirror its cumulative counters for concurrent readers,
	// and walRecovered freezes what boot recovery covered.
	walPos       wal.Positions
	walRecovered wal.Positions
	walApplied   atomic.Uint64
	walBatches   atomic.Uint64
	cpStop       chan struct{}
	cpWG         sync.WaitGroup

	// Writer-goroutine-private counters, copied into each snapshot.
	nApplied     uint64
	nBatches     uint64
	nDeltaTuples uint64
	nSnapshots   uint64
	nApplyErrs   uint64
	nUnconverged uint64
	lastErr      string
	dirty        bool
	// lastPublish is how long the last publish took: the writer drains
	// queued batches before publishing only while their apply time is
	// below it (see drainMore).
	lastPublish time.Duration

	viewTree string
}

type shard struct {
	rel   string
	arity int
	ch    chan ingestMsg
	// buf is the batcher's reusable per-flush update slice. Only the
	// shard's single batcher goroutine touches it; BuildDelta does not
	// retain its argument and the batch sent to the writer carries only
	// the prebuilt delta, so the buffer is free again by the time the
	// next flush starts (asserted by the zero-steady-state-allocs test).
	buf []view.Update
	// wal is the shard's append handle when durability is configured
	// (nil otherwise). Only the shard's batcher goroutine appends.
	wal *wal.Shard
	// refbuf is the batcher's reusable per-flush batch-ref slice,
	// collected alongside buf; AppendRefs encodes without retaining it.
	refbuf []wal.BatchRef
}

type ingestMsg struct {
	ups  []view.Update
	done chan struct{} // closed by the writer after the publish covering ups
	at   time.Time     // enqueue time, for batcher-wait latency
	// ref names the identified client batch these updates belong to
	// (zero ID for unidentified traffic). The batcher records it inside
	// the WAL record so dedup survives recovery.
	ref wal.BatchRef
}

// batch carries a prebuilt delta to the writer together with its trace
// context: the spans measured so far (queue wait of the oldest message,
// delta build) ride along as plain value fields, so tracing adds no
// allocations to the batch handoff.
type batch struct {
	rel   string
	delta fivm.Delta
	raw   int    // ingested updates this batch represents
	seq   uint64 // WAL sequence number (0 when running without a WAL)
	dones []chan struct{}
	wait  time.Duration // oldest-message queue wait at collect time
	build time.Duration // BuildDelta span
}

type execReq struct {
	fn   func(fivm.AnyEngine)
	done chan struct{}
}

// New wraps an engine (already Init-ed with any initial data) in a
// Server and starts the pipeline. The Server takes ownership of the
// engine: after New the caller must not touch it except through Sync.
func New(eng fivm.AnyEngine, cfg Config) (*Server, error) {
	if eng == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		eng:        eng,
		cfg:        cfg,
		shards:     make(map[string]*shard),
		batches:    make(chan batch, cfg.ChannelCap),
		exec:       make(chan execReq),
		writerDone: make(chan struct{}),
		crashed:    make(chan struct{}),
		viewTree:   eng.ViewTree(),
	}
	s.dedup = newDedupTable(cfg.DedupCap)
	for _, rel := range eng.RelationNames() {
		arity, _ := eng.Arity(rel)
		s.shards[rel] = &shard{rel: rel, arity: arity, ch: make(chan ingestMsg, cfg.ChannelCap)}
	}
	if cfg.WAL != nil {
		// Continue the recovered positions: the engine was restored via
		// Recover with this same WAL, so live batches extend the prefix
		// the last checkpoint and replay already covered.
		s.walRecovered = cfg.WAL.RecoveredPositions()
		s.walPos = cfg.WAL.RecoveredPositions()
		s.walApplied.Store(s.walPos.Applied)
		s.walBatches.Store(s.walPos.Batches)
		for rel, sh := range s.shards {
			ws, err := cfg.WAL.Shard(rel)
			if err != nil {
				return nil, err
			}
			sh.wal = ws
		}
		// Batch IDs found in the replayed log become completed dedup
		// entries: a router retrying a batch the crashed process already
		// logged is answered, not double-applied.
		s.dedup.seedRecovered(cfg.WAL.RecoveredBatchRefs())
	}
	s.met = newPipelineMetrics(s) // before publish: publish records its span
	s.publish()                   // version 1: the initial state, before any goroutine runs
	for _, sh := range s.shards {
		s.batchers.Add(1)
		go s.runBatcher(sh)
	}
	go s.runWriter()
	if cfg.WAL != nil && cfg.CheckpointInterval > 0 {
		s.cpStop = make(chan struct{})
		s.cpWG.Add(1)
		go s.checkpointLoop()
	}
	return s, nil
}

// Kind identifies the hosted engine kind.
func (s *Server) Kind() fivm.Kind { return s.eng.Kind() }

// Ingest is IngestBatch without an ID: it enqueues tuple updates and
// returns a channel that is closed once every update of this call has
// been applied to the engine AND a snapshot reflecting them has been
// published — callers that need read-your-writes wait on it;
// fire-and-forget callers drop it.
func (s *Server) Ingest(ups []view.Update) (<-chan struct{}, error) {
	done, _, err := s.IngestBatch(wal.BatchID{}, ups)
	return done, err
}

// IngestBatch is the one admission path. id stamps the call so a
// redelivery of the same (id, body) — a client or router retry after a
// lost response — is answered from the dedup table instead of applied
// again. Retries MUST resend the identical update list under an id;
// the table dedups per (id, relation) group and trusts the id, it does
// not compare bodies. A zero id skips only the dedup table.
//
// The returned done channel closes once every group of THIS call —
// freshly enqueued or already in flight from the original delivery —
// is applied and published (read-your-writes). deduped reports how many
// of the call's updates were suppressed as duplicates; an ack for a
// fully deduplicated batch has deduped == len(ups).
//
// Updates to one relation are applied in ingest order; updates to
// different relations may interleave with other callers', which cannot
// change the final state (delta application commutes).
func (s *Server) IngestBatch(id wal.BatchID, ups []view.Update) (done <-chan struct{}, deduped int, err error) {
	if len(ups) == 0 {
		return closedChan, 0, nil
	}
	// Nothing may be enqueued — or entered into the dedup table — unless
	// the whole call is valid.
	order, groups, err := s.groupUpdates(ups)
	if err != nil {
		return nil, 0, err
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, 0, ErrClosed
	}
	if err := s.CrashError(); err != nil {
		return nil, 0, err
	}

	// waits collects one done channel per group: first the dedup hits',
	// which join the original delivery's wait, then the fresh groups'.
	waits := make([]chan struct{}, 0, len(order))
	fresh := order
	t, identified := s.dedup, !id.IsZero()
	if identified {
		// Partition under the table lock, held through admission so a
		// concurrent duplicate cannot slip in between lookup and entry.
		t.mu.Lock()
		fresh = order[:0:len(order)] // reuse order's backing array; order is not read again
		for _, rel := range order {
			if e := t.get(dedupKey{id: id, rel: rel}); e != nil {
				waits = append(waits, e.done)
				deduped += len(groups[rel])
				continue
			}
			if t.expired(id) {
				t.mu.Unlock()
				return nil, 0, fmt.Errorf("%w: %v (relation %s)", ErrBatchExpired, id, rel)
			}
			fresh = append(fresh, rel)
		}
	}
	// Admission control: if any fresh group's queue is full, shed the
	// whole call before anything is enqueued or entered into the dedup
	// table — all-or-nothing, so a multi-relation call never lands
	// partially and a shed call's retry is not mistaken for a duplicate.
	// The check is advisory: concurrent ingesters can still race past it
	// into a blocking send.
	for _, rel := range fresh {
		ch := s.shards[rel].ch
		if depth := len(ch); depth == cap(ch) {
			if identified {
				t.mu.Unlock()
			}
			s.shed.Add(uint64(len(ups)))
			return nil, 0, &OverloadError{Rel: rel, Depth: depth, Capacity: cap(ch)}
		}
	}
	hits := len(waits)
	for range fresh {
		waits = append(waits, make(chan struct{}))
	}
	dones := waits[hits:] // dones[i] belongs to fresh[i]
	if identified {
		if deduped > 0 {
			t.hits.Add(uint64(deduped))
		}
		for i, rel := range fresh {
			t.put(&dedupEntry{key: dedupKey{id: id, rel: rel}, accepted: len(groups[rel]), done: dones[i]})
		}
		t.mu.Unlock()
	}

	// Count before the sends: a snapshot published mid-call must never
	// report Applied > Ingested.
	s.ingested.Add(uint64(len(ups) - deduped))
	now := time.Now()
	for i, rel := range fresh {
		msg := ingestMsg{ups: groups[rel], done: dones[i], at: now, ref: wal.BatchRef{ID: id, Updates: len(groups[rel])}}
		// A crash stops the batchers, so an unguarded send could block
		// forever. A call interrupted mid-send reports the crash; groups
		// already sent keep their dedup entries, and no done ever closes
		// — crash semantics, not acknowledged.
		select {
		case s.shards[rel].ch <- msg:
		case <-s.crashed:
			return nil, 0, s.crashErr
		}
	}
	if len(waits) == 1 {
		return waits[0], deduped, nil
	}
	all := make(chan struct{})
	go func() {
		for _, w := range waits {
			<-w
		}
		close(all)
	}()
	return all, deduped, nil
}

// groupUpdates groups ups by relation, preserving per-relation order
// and validating every update with the engine's CheckUpdate (relation
// known, tuple arity, numeric values in range) before anything is
// enqueued — a bad update must not reach the pipeline goroutines, where
// it would panic the whole server or be dropped after its 202.
func (s *Server) groupUpdates(ups []view.Update) (order []string, groups map[string][]view.Update, err error) {
	order = make([]string, 0, 4)
	groups = make(map[string][]view.Update, 4)
	for i, u := range ups {
		if err := s.eng.CheckUpdate(u); err != nil {
			return nil, nil, fmt.Errorf("serve: updates[%d]: %w", i, err)
		}
		g, ok := groups[u.Rel]
		if !ok {
			order = append(order, u.Rel)
		}
		groups[u.Rel] = append(g, u)
	}
	return order, groups, nil
}

// Sync runs fn on the writer goroutine with exclusive access to the
// engine, between batches — the safe way to reach engine state the
// snapshot does not carry (e.g. WriteSnapshot persistence). It blocks
// until fn returns.
func (s *Server) Sync(fn func(fivm.AnyEngine)) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	// A poisoned pipeline must not serve new rounds, even while the
	// writer is still draining toward exit (it could otherwise win the
	// select below and run fn against unrecoverable state).
	if err := s.CrashError(); err != nil {
		s.mu.RUnlock()
		return err
	}
	req := execReq{fn: fn, done: make(chan struct{})}
	// While the server is open the writer only exits on a crash; the
	// select keeps Sync from blocking forever against a dead writer.
	select {
	case s.exec <- req:
	case <-s.writerDone:
		s.mu.RUnlock()
		if err := s.CrashError(); err != nil {
			return err
		}
		return ErrClosed
	}
	s.mu.RUnlock()
	<-req.done
	return nil
}

// Snapshot returns the latest published snapshot. It never blocks and
// never returns nil.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Stats returns serving counters: snapshot-consistent applied-side
// numbers plus the live ingested and shed counts.
func (s *Server) Stats() Stats {
	st := s.snap.Load().Stats
	st.Ingested = s.ingested.Load()
	st.Shed = s.shed.Load()
	return st
}

// Shards reports every relation's ingest queue (depth, capacity,
// arity) — the health-check view of where backlog sits. Channel
// lengths are instantaneous reads; no lock is taken.
func (s *Server) Shards() map[string]client.ShardStatus {
	out := make(map[string]client.ShardStatus, len(s.shards))
	for rel, sh := range s.shards {
		out[rel] = client.ShardStatus{Depth: len(sh.ch), Capacity: cap(sh.ch), Arity: sh.arity}
	}
	return out
}

// ViewTree returns the engine's view-tree rendering (immutable after
// construction, so it is served from cache).
func (s *Server) ViewTree() string { return s.viewTree }

// Close drains the pipeline — every update accepted by Ingest before
// Close is applied and reflected in a final snapshot — then stops all
// goroutines and, when a WAL is configured, writes a final checkpoint.
// After a crash there is no drain and no checkpoint: the WAL already
// holds the clean prefix a restart will recover. Close is idempotent;
// Ingest and Sync fail with ErrClosed afterwards.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.writerDone
		return nil
	}
	s.closed = true
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.mu.Unlock()

	if s.cpStop != nil {
		close(s.cpStop)
		s.cpWG.Wait()
	}
	s.batchers.Wait()
	close(s.batches)
	<-s.writerDone
	return s.finalCheckpoint()
}
