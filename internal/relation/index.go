package relation

import (
	"fmt"
	"slices"
)

// index is one persistent secondary index over a Map: the map's live
// entries grouped by the encoding of their tuple projected onto proj.
// Postings hold the same *entry pointers the primary map stores, so an
// in-place payload update (the merge hot path) needs no index work;
// only inserting a new entry and removing an annihilated one touch the
// postings. The postings list lives behind a pointer so appends and
// swap-deletes mutate it without re-materializing the key string.
//
// Indexes build LAZILY: registration (AddIndex) records only the
// projection, and the postings materialize on the first probe
// (Step), after which every mutation maintains them. A
// registered index that no delta source ever probes therefore costs
// nothing — neither build time nor maintenance nor memory — which
// matters because the view tree registers indexes for every possible
// delta direction while most workloads update few relations. Building,
// probing and maintaining an index all happen on the map's single
// writer, like every other mutation of it.
//
// Indexes are what makes delta propagation O(|delta|): Step
// looks join matches up here instead of scanning the whole relation
// (see the join-key registration in view.Tree).
type index[V any] struct {
	proj []int
	// built flips true on the first probe; mutators skip unbuilt
	// indexes.
	built bool
	data  map[string]*postings[V]
	// pos maps each indexed entry to its postings list and slot, so
	// annihilation removal is O(1) — no bucket scan (a skewed key's
	// bucket grows with the relation, and a delete-heavy stream must
	// not pay for its size), and no per-delete key encode or string-map
	// lookup either; the projected key is only re-encoded when a bucket
	// empties out and its map entry must go.
	pos map[*entry[V]]slot[V]
	// Postings structs are slab-allocated in chunks and recycled when a
	// bucket empties (keeping the entries slice capacity), mirroring the
	// entry arena: a churn-heavy stream creates and empties join-key
	// buckets constantly and must not pay one allocation per bucket.
	postSlab []postings[V]
	postFree []*postings[V]
}

// postingsSlabSize is the postings chunk size; buckets are only created
// on long-lived indexed maps, so a fixed mid-size chunk is fine.
const postingsSlabSize = 64

// newPostings returns a single-entry postings list, recycled or carved
// from the slab.
func (ix *index[V]) newPostings(e *entry[V]) *postings[V] {
	if n := len(ix.postFree); n > 0 {
		p := ix.postFree[n-1]
		ix.postFree[n-1] = nil
		ix.postFree = ix.postFree[:n-1]
		p.entries = append(p.entries, e)
		return p
	}
	if len(ix.postSlab) == 0 {
		ix.postSlab = make([]postings[V], postingsSlabSize)
	}
	p := &ix.postSlab[0]
	ix.postSlab = ix.postSlab[1:]
	p.entries = append(p.entries, e)
	return p
}

type postings[V any] struct {
	entries []*entry[V]
}

type slot[V any] struct {
	p *postings[V]
	i int
}

// AddIndex registers a persistent secondary index on the projection of
// the key schema onto the positions proj (as produced by
// Schema.Project). The index stays empty until the first probe
// (Step) materializes it from the then-current contents; from
// that point every mutation of the map maintains it incrementally.
// Registering a projection that is already registered is a no-op, so
// declaring the same index from several join plans is safe.
//
// Indexes are a property of this map object: they survive Reset, and
// Clone and Negate return unindexed copies.
func (m *Map[V]) AddIndex(proj []int) {
	for _, p := range proj {
		if p < 0 || p >= m.schema.Len() {
			panic(fmt.Sprintf("relation: index position %d out of range for schema %v", p, m.schema))
		}
	}
	for _, ix := range m.indexes {
		if slices.Equal(ix.proj, proj) {
			return
		}
	}
	m.indexes = append(m.indexes, &index[V]{proj: slices.Clone(proj)})
}

// IndexCount returns the number of registered secondary indexes (built
// or not); exposed for tests and introspection.
func (m *Map[V]) IndexCount() int { return len(m.indexes) }

// indexOn returns the registered index whose projection equals proj,
// or nil when none matches (Step then builds and scans).
func (m *Map[V]) indexOn(proj []int) *index[V] {
	for _, ix := range m.indexes {
		if slices.Equal(ix.proj, proj) {
			return ix
		}
	}
	return nil
}

// ensure materializes the index from m's current contents on first use.
func (ix *index[V]) ensure(m *Map[V]) {
	if ix.built {
		return
	}
	ix.data = make(map[string]*postings[V], len(m.data))
	ix.pos = make(map[*entry[V]]slot[V], len(m.data))
	var kbuf []byte
	for _, e := range m.data {
		kbuf = e.tuple.AppendEncodeProject(kbuf[:0], ix.proj)
		ix.add(kbuf, e)
	}
	ix.built = true
}

// add appends entry e to the bucket of the encoded projected key and
// records its slot for O(1) removal — the one place the postings
// representation is written, shared by the lazy build and indexInsert.
func (ix *index[V]) add(key []byte, e *entry[V]) {
	if p, ok := ix.data[string(key)]; ok {
		ix.pos[e] = slot[V]{p: p, i: len(p.entries)}
		p.entries = append(p.entries, e)
	} else {
		p := ix.newPostings(e)
		ix.data[string(key)] = p
		ix.pos[e] = slot[V]{p: p}
	}
}

// lookup returns the postings for the encoded projected key, nil when
// the key is unoccupied.
func (ix *index[V]) lookup(key []byte) []*entry[V] {
	if p, ok := ix.data[string(key)]; ok {
		return p.entries
	}
	return nil
}

// indexInsert adds a freshly inserted entry to every built index.
// Called by the mutation paths right after storing a new entry in the
// primary map; payload-only updates never come here (the entry pointer,
// and with it every posting, stays valid). Unbuilt indexes are skipped:
// their eventual first probe captures the entry from the primary map.
func (m *Map[V]) indexInsert(e *entry[V]) {
	if len(m.indexes) == 0 {
		return
	}
	var arr [64]byte
	for _, ix := range m.indexes {
		if !ix.built {
			continue
		}
		ix.add(e.tuple.AppendEncodeProject(arr[:0], ix.proj), e)
	}
}

// indexRemove drops an annihilated entry (its payload reached the ring
// zero) from every built index, deleting join-key buckets that empty
// out so index size tracks live entries.
func (m *Map[V]) indexRemove(e *entry[V]) {
	if len(m.indexes) == 0 {
		return
	}
	var arr [64]byte
	for _, ix := range m.indexes {
		if !ix.built {
			continue
		}
		s, ok := ix.pos[e]
		if !ok {
			continue
		}
		p := s.p
		last := len(p.entries) - 1
		moved := p.entries[last]
		p.entries[s.i] = moved
		p.entries[last] = nil
		p.entries = p.entries[:last]
		if moved != e {
			ix.pos[moved] = slot[V]{p: p, i: s.i}
		}
		delete(ix.pos, e)
		if len(p.entries) == 0 {
			kbuf := e.tuple.AppendEncodeProject(arr[:0], ix.proj)
			delete(ix.data, string(kbuf))
			ix.postFree = append(ix.postFree, p)
		}
	}
}

// resetIndexes empties every built index alongside Reset, keeping the
// registrations (and recycled postings) for the refill.
func (m *Map[V]) resetIndexes() {
	for _, ix := range m.indexes {
		if ix.built {
			for _, p := range ix.data {
				for i := range p.entries {
					p.entries[i] = nil
				}
				p.entries = p.entries[:0]
				ix.postFree = append(ix.postFree, p)
			}
			clear(ix.data)
			clear(ix.pos)
		}
	}
}
