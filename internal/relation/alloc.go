package relation

import "repro/internal/value"

// Entry slab sizing: the first chunk is small so the many short-lived
// delta/join/aggregate output maps of single-tuple maintenance pay for
// one or two entries, not a page; chunks double up to the cap so bulk
// loads and large batches amortize to one allocation per entrySlabMax
// entries.
const (
	entrySlabMin = 8
	entrySlabMax = 512
)

// arena is a per-Map slab allocator for entry structs. Entries are
// handed out from chunked backing arrays (one allocation per chunk
// instead of one per entry) and recycled through a free list when they
// are annihilated — a payload reaching the ring zero under Merge,
// MergeAll, or Step's fold — or when an owning map is
// Reset. Recycling is safe exactly because annihilation and Reset are
// the points where the map relinquishes an entry: the ownership
// contract (package doc) says entry structs never escape their map —
// Clone and MergeAll copy into fresh ones, and index postings are
// unregistered before the entry is recycled. Payloads and tuples are
// NOT recycled: recycle only drops the entry's references to them, so
// payload values shared with snapshots and clones are untouched.
//
// The arena is owned by its Map and inherits the map's single-writer
// contract, so it needs no synchronization of its own.
type arena[V any] struct {
	slab []entry[V] // tail of the current chunk; entries are sliced off the front
	free []*entry[V]
	// grow is the next chunk size, doubling from entrySlabMin to
	// entrySlabMax.
	grow int
}

// newEntry returns an initialized entry, reusing a recycled one when
// available and carving from the current slab chunk otherwise.
func (a *arena[V]) newEntry(t value.Tuple, p V, shared bool) *entry[V] {
	if n := len(a.free); n > 0 {
		e := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		e.tuple, e.payload, e.shared = t, p, shared
		return e
	}
	if len(a.slab) == 0 {
		if a.grow < entrySlabMin {
			a.grow = entrySlabMin
		}
		a.slab = make([]entry[V], a.grow)
		if a.grow < entrySlabMax {
			a.grow *= 2
		}
	}
	e := &a.slab[0]
	a.slab = a.slab[1:]
	e.tuple, e.payload, e.shared = t, p, shared
	return e
}

// recycle returns an entry the map no longer stores to the free list,
// dropping its tuple and payload references so a parked entry pins
// nothing. Callers must have removed the entry from the primary map and
// every built index first (indexRemove reads e.tuple).
func (a *arena[V]) recycle(e *entry[V]) {
	var zero V
	e.tuple, e.payload, e.shared = nil, zero, false
	a.free = append(a.free, e)
}

// newEntry allocates an entry owned by m from its slab arena.
func (m *Map[V]) newEntry(t value.Tuple, p V, shared bool) *entry[V] {
	return m.arena.newEntry(t, p, shared)
}

// drop retires an annihilated entry the caller has already deleted
// from the primary map: out of every built index, into the arena.
func (m *Map[V]) drop(e *entry[V]) {
	m.indexRemove(e)
	m.arena.recycle(e)
}
