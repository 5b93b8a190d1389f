package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/view"
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
	accepted int             // updates the group carried
	done     <-chan struct{} // closed once applied + published (may arrive pre-closed from recovery)
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

// IngestBatch is Ingest for identified batches: id stamps the call so a
// redelivery of the same (id, body) — a client or router retry after a
// lost response — is answered from the dedup table instead of applied
// again. Retries MUST resend the identical update list under an id;
// the table dedups per (id, relation) group and trusts the id, it does
// not compare bodies.
//
// The returned done channel closes once every group of THIS call —
// freshly enqueued or already in flight from the original delivery —
// is applied and published (read-your-writes, exactly like Ingest).
// deduped reports how many of the call's updates were suppressed as
// duplicates; an ack for a fully deduplicated batch has deduped ==
// len(ups). A zero id degrades to plain Ingest.
func (s *Server) IngestBatch(id wal.BatchID, ups []view.Update) (done <-chan struct{}, deduped int, err error) {
	if id.IsZero() {
		d, err := s.Ingest(ups)
		return d, 0, err
	}
	dch := make(chan struct{})
	if len(ups) == 0 {
		close(dch)
		return dch, 0, nil
	}
	// Validate and group exactly like Ingest: nothing may be enqueued —
	// or entered into the dedup table — unless the whole call is valid.
	order, groups, err := s.groupUpdates(ups)
	if err != nil {
		return nil, 0, err
	}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, 0, ErrClosed
	}
	if err := s.CrashError(); err != nil {
		s.mu.RUnlock()
		return nil, 0, err
	}

	// Partition the groups under the table lock: groups with an entry
	// join the original delivery's wait; the rest are fresh and must
	// pass admission control before any entry is created (a shed call
	// leaves no trace, so its retry is not mistaken for a duplicate).
	t := s.dedup
	t.mu.Lock()
	waits := make([]<-chan struct{}, 0, len(order))
	fresh := order[:0:len(order)] // reuse order's backing array; order is not read again
	freshUps := 0
	for _, rel := range order {
		if e := t.get(dedupKey{id: id, rel: rel}); e != nil {
			waits = append(waits, e.done)
			deduped += len(groups[rel])
			continue
		}
		if t.expired(id) {
			t.mu.Unlock()
			s.mu.RUnlock()
			return nil, 0, fmt.Errorf("%w: %v (relation %s)", ErrBatchExpired, id, rel)
		}
		fresh = append(fresh, rel)
		freshUps += len(groups[rel])
	}
	for _, rel := range fresh {
		if ch := s.shards[rel].ch; len(ch) >= s.cfg.HighWatermark {
			t.mu.Unlock()
			s.shed.Add(uint64(len(ups)))
			s.mu.RUnlock()
			return nil, 0, &OverloadError{Rel: rel, Depth: len(ch), Capacity: cap(ch)}
		}
	}
	if deduped > 0 {
		t.hits.Add(uint64(deduped))
	}
	groupDones := make([]chan struct{}, len(fresh))
	for i, rel := range fresh {
		gd := make(chan struct{})
		groupDones[i] = gd
		t.put(&dedupEntry{key: dedupKey{id: id, rel: rel}, accepted: len(groups[rel]), done: gd})
		waits = append(waits, gd)
	}
	t.mu.Unlock()

	if freshUps > 0 {
		s.ingested.Add(uint64(freshUps))
	}
	now := time.Now()
	for i, rel := range fresh {
		wg := &sync.WaitGroup{}
		wg.Add(1)
		ref := wal.BatchRef{ID: id, Updates: len(groups[rel])}
		select {
		case s.shards[rel].ch <- ingestMsg{ups: groups[rel], wg: wg, at: now, ref: ref}:
		case <-s.crashed:
			// Groups already sent keep their in-flight entries; like a
			// crashed Ingest, their done never closes — crash semantics.
			s.mu.RUnlock()
			return nil, 0, s.crashErr
		}
		gd := groupDones[i]
		go func() {
			wg.Wait()
			close(gd)
		}()
	}
	s.mu.RUnlock()

	go func() {
		for _, w := range waits {
			<-w
		}
		close(dch)
	}()
	return dch, deduped, nil
}

// DedupStatus reports the idempotency table for /v1/stats.
type DedupStatus struct {
	// Entries is the current table size; Capacity its bound (the retry
	// window, in recently seen batch groups).
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Hits counts duplicate groups answered from the table.
	Hits uint64 `json:"hits"`
}

// DedupStatus returns the idempotency table's live counters.
func (s *Server) DedupStatus() DedupStatus {
	return DedupStatus{Entries: s.dedup.size(), Capacity: s.dedup.cap, Hits: s.dedup.hits.Load()}
}
