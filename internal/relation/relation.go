package relation

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ring"
	"repro/internal/value"
)

// Map is a relation over a fixed key schema with payloads in V. Tuples
// with payload equal to the ring zero are not stored. Map is not safe
// for concurrent mutation.
//
// Entries are stored behind pointers so the merge hot path can update a
// payload in place after a zero-allocation lookup (encoding the tuple
// into a reused scratch buffer and indexing the map with string(buf),
// which Go compiles without copying); re-assigning through the map
// would re-materialize the key string on every merge. The entry structs
// are owned by the map — Clone allocates fresh ones. A stored payload is
// owned too, and folded into in place, unless its entry is flagged
// shared (see the package doc for the ownership contract).
type Map[V any] struct {
	schema value.Schema
	data   map[string]*entry[V]
	// indexes are the registered persistent join-key indexes (AddIndex),
	// maintained by every mutation path. Empty for the vast majority of
	// maps (deltas, join/aggregate outputs, scratch); the view tree
	// registers them on the materialized views and source relations that
	// delta propagation probes.
	indexes []*index[V]
	// arena slab-allocates this map's entry structs and recycles
	// annihilated ones (see alloc.go).
	arena arena[V]
}

type entry[V any] struct {
	tuple   value.Tuple
	payload V
	// shared marks a payload that may be referenced from outside this
	// map (a delta it was inserted from, a cached ring constant, a
	// clone, an unlifted aggregate of it): add must not fold into it in
	// place and takes one pure Add, whose fresh result clears the flag.
	shared bool
}

// add folds the non-zero payload p into the entry and reports whether
// the sum annihilated (the caller then removes the entry). A payload
// the map exclusively owns accumulates in place through the ring's
// Scratch extension; a shared one, or any payload of a ring without
// Scratch, is replaced by the pure sum — copy-on-write, after which the
// map owns the fresh value. That relies on two invariants: maps store
// no ring zero and p is non-zero, so Add cannot take an
// operand-returning zero fast path and hand p itself back.
func (e *entry[V]) add(r ring.Ring[V], sc ring.Scratch[V], p V) (zero bool) {
	if sc != nil && !e.shared {
		e.payload = sc.AddInto(e.payload, p)
	} else {
		e.payload = r.Add(e.payload, p)
		e.shared = false
	}
	return r.IsZero(e.payload)
}

// scratchOf returns the ring's optional in-place accumulation extension
// (nil when the ring does not implement it).
func scratchOf[V any](r ring.Ring[V]) ring.Scratch[V] {
	sc, _ := r.(ring.Scratch[V])
	return sc
}

// New returns an empty relation over the given key schema.
func New[V any](schema value.Schema) *Map[V] { return NewSized[V](schema, 0) }

// NewSized is New with the table allocated for n tuples up front.
func NewSized[V any](schema value.Schema, n int) *Map[V] {
	return &Map[V]{schema: schema, data: make(map[string]*entry[V], n)}
}

// Schema returns the key schema.
func (m *Map[V]) Schema() value.Schema { return m.schema }

// Len returns the number of tuples with non-zero payload.
func (m *Map[V]) Len() int { return len(m.data) }

// Reset removes every tuple while keeping the schema and the map's
// allocated capacity, so scratch relations (per-engine delta buffers)
// can be refilled without reallocating. Payloads handed out earlier
// (e.g. merged into another relation) are unaffected, but the entry
// STRUCTS are recycled into the map's arena for the refill. Registered
// indexes stay registered and are emptied alongside the data.
func (m *Map[V]) Reset() {
	for _, e := range m.data {
		m.arena.recycle(e)
	}
	clear(m.data)
	m.resetIndexes()
}

// Get returns the payload of tuple t and whether it is present.
func (m *Map[V]) Get(t value.Tuple) (V, bool) {
	if e, ok := m.data[t.Encode()]; ok {
		return e.payload, true
	}
	var zero V
	return zero, false
}

// GetOr returns the payload of t, or def when absent.
func (m *Map[V]) GetOr(t value.Tuple, def V) V {
	if e, ok := m.data[t.Encode()]; ok {
		return e.payload
	}
	return def
}

// Set stores payload p for tuple t, replacing any existing payload.
// The tuple length must match the schema and p must not be the ring
// zero (which relations never store). The caller may keep using p: the
// entry is flagged shared.
func (m *Map[V]) Set(t value.Tuple, p V) {
	if len(t) != m.schema.Len() {
		panic(fmt.Sprintf("relation: tuple arity %d does not match schema %v", len(t), m.schema))
	}
	k := t.Encode()
	if e, ok := m.data[k]; ok {
		e.payload = p
		e.shared = true
		return
	}
	e := m.newEntry(t, p, true)
	m.data[k] = e
	m.indexInsert(e)
}

// Merge adds payload p to tuple t's payload under ring r, removing the
// entry if the result is the ring zero. p is only read, and a newly
// inserted entry is flagged shared, so the caller may pass the same
// value (a cached ring constant) any number of times.
func (m *Map[V]) Merge(r ring.Ring[V], t value.Tuple, p V) {
	if len(t) != m.schema.Len() {
		panic(fmt.Sprintf("relation: tuple arity %d does not match schema %v", len(t), m.schema))
	}
	if r.IsZero(p) {
		return
	}
	var arr [64]byte
	buf := t.AppendEncode(arr[:0])
	if e, ok := m.data[string(buf)]; !ok {
		e = m.newEntry(t, p, true)
		m.data[string(buf)] = e
		m.indexInsert(e)
	} else if e.add(r, scratchOf(r), p) {
		delete(m.data, string(buf))
		m.drop(e)
	}
}

// MergeAll merges every tuple of other into m under ring r. The schemas
// must be equal. other's entries are only read: a key new to m gets
// m's own entry struct holding other's payload, flagged shared; a key m
// already stores accumulates through entry.add — in place once m owns
// the payload.
func (m *Map[V]) MergeAll(r ring.Ring[V], other *Map[V]) { m.mergeAll(r, other, false) }

// Absorb is MergeAll of a relation the caller gives up with the call —
// the commit step of view maintenance, whose delta views are dropped
// once merged. A key new to m keeps other's ownership flag rather than
// being flagged shared, so m owns what other owned and the next delta
// folds into it in place, from the first touch after a load on.
func (m *Map[V]) Absorb(r ring.Ring[V], other *Map[V]) { m.mergeAll(r, other, true) }

func (m *Map[V]) mergeAll(r ring.Ring[V], other *Map[V], ceded bool) {
	if !m.schema.Equal(other.schema) {
		panic(fmt.Sprintf("relation: MergeAll schema mismatch %v vs %v", m.schema, other.schema))
	}
	sc := scratchOf(r)
	for k, e := range other.data {
		if r.IsZero(e.payload) {
			continue
		}
		if ex, ok := m.data[k]; !ok {
			ne := m.newEntry(e.tuple, e.payload, !ceded || e.shared)
			m.data[k] = ne
			m.indexInsert(ne)
		} else if ex.add(r, sc, e.payload) {
			delete(m.data, k)
			m.drop(ex)
		}
	}
}

// Each calls fn for every tuple/payload pair in unspecified order.
// fn must not mutate the relation.
func (m *Map[V]) Each(fn func(t value.Tuple, p V)) {
	for _, e := range m.data {
		fn(e.tuple, e.payload)
	}
}

// EachSorted calls fn in lexicographic tuple order; used by tests and
// display code that need determinism.
func (m *Map[V]) EachSorted(fn func(t value.Tuple, p V)) {
	keys := make([]string, 0, len(m.data))
	for k := range m.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := m.data[k]
		fn(e.tuple, e.payload)
	}
}

// Clone returns a copy with fresh entry structs. Payloads are shared
// between the two maps, so both sides' entries are flagged: whichever
// map is merged into next replaces its payload instead of mutating the
// other's — a clone is a stable snapshot (published models rely on it).
// Flagging writes m's entries, so Clone counts as a mutation under the
// single-writer contract. Secondary indexes are not copied —
// re-register with AddIndex on the clone when needed.
func (m *Map[V]) Clone() *Map[V] {
	out := &Map[V]{schema: m.schema, data: make(map[string]*entry[V], len(m.data))}
	for k, e := range m.data {
		e.shared = true
		out.data[k] = out.newEntry(e.tuple, e.payload, true)
	}
	return out
}

// Negate returns a copy with every payload replaced by its additive
// inverse; applied to an insert batch it yields the matching delete
// batch.
func (m *Map[V]) Negate(r ring.Ring[V]) *Map[V] {
	out := &Map[V]{schema: m.schema, data: make(map[string]*entry[V], len(m.data))}
	for k, e := range m.data {
		out.data[k] = out.newEntry(e.tuple, r.Neg(e.payload), true)
	}
	return out
}

// Equal reports whether two relations over equal schemas hold the same
// tuples with payloads equal under eq.
func (m *Map[V]) Equal(other *Map[V], eq func(a, b V) bool) bool {
	if !m.schema.Equal(other.schema) || len(m.data) != len(other.data) {
		return false
	}
	for k, e := range m.data {
		oe, ok := other.data[k]
		if !ok || !eq(e.payload, oe.payload) {
			return false
		}
	}
	return true
}

// String renders the relation sorted by tuple, one "tuple -> payload"
// pair per line.
func (m *Map[V]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v {\n", m.schema)
	m.EachSorted(func(t value.Tuple, p V) {
		fmt.Fprintf(&b, "  %v -> %v\n", t, p)
	})
	b.WriteString("}")
	return b.String()
}
