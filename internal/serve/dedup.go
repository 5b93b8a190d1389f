package serve

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/wal"
)

// BatchIDHeader carries a client batch ID on POST /v1/update. See
// wal.BatchID for the format and docs/API.md for the protocol.
const BatchIDHeader = "X-Fivm-Batch-Id"

// dedupKey identifies one relation group of one client batch. Dedup is
// per (batch, relation), not per batch: a request's updates are grouped
// by relation at ingest and each group travels — and is WAL-logged —
// independently, so after a crash some groups of a batch may be durable
// while others are not. Group granularity lets a retry re-apply exactly
// the missing groups.
type dedupKey struct {
	id  wal.BatchID
	rel string
}

// dedupEntry records that one relation group of an identified batch has
// been enqueued (and, once done closes, applied and published). A
// duplicate delivery waits on done instead of re-enqueueing — for ring
// payloads that wait IS the original ack, since the group's effect is
// already (or about to be) in the model.
type dedupEntry struct {
	key      dedupKey
	accepted int           // updates the group carried
	done     chan struct{} // the group's ingestMsg.done: closed once applied + published (pre-closed from recovery)
}

// ErrBatchExpired refuses an identified batch group that has no dedup
// entry while its sequence number is at or below the highest one its
// origin has had evicted: it may be a late retry of a group already
// applied, and applying it again would double it.
var ErrBatchExpired = errors.New("serve: batch ID is older than the dedup window")

// dedupTable is the bounded recently-applied-batch memory behind
// exactly-once ingest. Entries evict FIFO once cap is exceeded,
// skipping in-flight entries (their done has not closed) so an entry
// can never disappear between enqueue and ack. The capacity bounds the
// retry window: an eviction raises its origin's high-water sequence
// number, and a delivery older than that window is refused with
// ErrBatchExpired instead of applied (see docs/API.md).
type dedupTable struct {
	mu   sync.Mutex
	cap  int
	m    map[dedupKey]*dedupEntry
	fifo []*dedupEntry // insertion order; evicted from the front
	// evicted holds each origin's highest evicted Seq.
	evicted map[[16]byte]uint64

	hits atomic.Uint64 // duplicate updates answered from the table
}

func newDedupTable(capacity int) *dedupTable {
	return &dedupTable{cap: capacity, m: make(map[dedupKey]*dedupEntry, capacity/4), evicted: make(map[[16]byte]uint64)}
}

// expired reports whether id is at or below its origin's evicted
// high-water mark. Caller holds mu.
func (t *dedupTable) expired(id wal.BatchID) bool { return id.Seq <= t.evicted[id.Origin] }

// get returns the entry for key, or nil. Caller holds mu.
func (t *dedupTable) get(key dedupKey) *dedupEntry { return t.m[key] }

// put inserts an entry, evicting the oldest completed entries to stay
// within cap. Caller holds mu.
func (t *dedupTable) put(e *dedupEntry) {
	for scan := len(t.fifo); len(t.m) >= t.cap && scan > 0; scan-- {
		old := t.fifo[0]
		t.fifo = t.fifo[1:]
		if old == nil {
			continue
		}
		select {
		case <-old.done:
			delete(t.m, old.key) // completed: safe to forget
			if id := old.key.id; id.Seq > t.evicted[id.Origin] {
				t.evicted[id.Origin] = id.Seq
			}
		default:
			t.fifo = append(t.fifo, old) // in-flight: rotate to the back
		}
	}
	t.m[e.key] = e
	t.fifo = append(t.fifo, e)
}

// size returns the live entry count (for the metrics gauge).
func (t *dedupTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// evictedOrigins returns how many origins have a high-water mark: the
// evicted map grows by one per origin and is never pruned.
func (t *dedupTable) evictedOrigins() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.evicted)
}

// closedChan is the pre-closed done shared by recovery-seeded entries.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// seedRecovered loads the batch refs WAL replay found into the table as
// completed entries, so a router retrying a batch the crashed process
// had already logged gets a dedup hit instead of a double-apply. It
// inserts through put, so refs beyond the capacity evict and raise
// their origins' high-water marks as live traffic would.
func (t *dedupTable) seedRecovered(refs []wal.RecoveredRef) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range refs {
		key := dedupKey{id: r.ID, rel: r.Rel}
		if t.m[key] != nil {
			continue
		}
		t.put(&dedupEntry{key: key, accepted: r.Updates, done: closedChan})
	}
}

// DedupStatus reports the idempotency table for /v1/stats.
type DedupStatus struct {
	// Entries is the current table size; Capacity its bound (the retry
	// window, in recently seen batch groups).
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Hits counts duplicate groups answered from the table.
	Hits uint64 `json:"hits"`
	// EvictedOrigins counts the client origins with an evicted
	// high-water sequence number.
	EvictedOrigins int `json:"evicted_origins"`
}

// DedupStatus returns the idempotency table's live counters.
func (s *Server) DedupStatus() DedupStatus {
	return DedupStatus{Entries: s.dedup.size(), Capacity: s.dedup.cap, Hits: s.dedup.hits.Load(),
		EvictedOrigins: s.dedup.evictedOrigins()}
}
