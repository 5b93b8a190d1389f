package relation

import (
	"repro/internal/ring"
	"repro/internal/value"
)

// ref names where one attribute value of a step comes from: position pos
// of the tuple bound for part part.
type ref struct{ part, pos int }

// probe is one lookup of a step: part is probed on the projection index
// of its schema (its attributes already bound, in its own order), whose
// values come from key, among the parts bound before it.
type probe struct {
	part  int
	index []int
	key   []ref
}

// StepPlan is the reusable schema geometry of one Step: the natural join
// of k parts over fixed schemas, fused with the aggregation of the join
// onto a group-by schema and an optional lift, for a delta at one part
// position. Deriving it per call costs a dozen allocations — noticeable
// on single-tuple deltas — so the view tree plans each node's steps once
// at build time, one plan per position a delta can enter, and replays
// them.
type StepPlan struct {
	out    value.Schema
	delta  int
	probes []probe // every part but the delta's, in operand order
	group  []ref   // output attribute i comes from group[i]
	lift   ref     // the lifted attribute; part -1 when none is lifted
}

// PlanStep plans Step over parts of the given schemas with the delta at
// position delta: the delta is iterated and every other part probed in
// operand order on its attributes bound so far. The output is grouped by
// out, whose attributes must all occur in some part; liftAttr names the
// lifted attribute, "" for none.
func PlanStep(parts []value.Schema, delta int, out value.Schema, liftAttr string) *StepPlan {
	p := &StepPlan{out: out, delta: delta, lift: ref{part: -1}}
	bound := map[string]ref{}
	bind := func(j int) {
		for i, a := range parts[j].Attrs() {
			if _, ok := bound[a]; !ok {
				bound[a] = ref{j, i}
			}
		}
	}
	bind(delta)
	for j, s := range parts {
		if j == delta {
			continue
		}
		pr := probe{part: j}
		for i, a := range s.Attrs() {
			if r, ok := bound[a]; ok {
				pr.index = append(pr.index, i)
				pr.key = append(pr.key, r)
			}
		}
		p.probes = append(p.probes, pr)
		bind(j)
	}
	find := func(a string) ref {
		r, ok := bound[a]
		if !ok {
			panic("relation: attribute " + a + " is in no step operand")
		}
		return r
	}
	for _, a := range out.Attrs() {
		p.group = append(p.group, find(a))
	}
	if liftAttr != "" {
		p.lift = find(liftAttr)
	}
	return p
}

// IndexKey returns the projection (positions into part's schema) the
// plan probes part on — the persistent index part should carry for a
// delta at the plan's position to cost O(|delta|) — or nil for the
// delta's own position.
func (p *StepPlan) IndexKey(part int) []int {
	for _, pr := range p.probes {
		if pr.part == part {
			return pr.index
		}
	}
	return nil
}

// Join computes the natural join of left and right under ring r: tuples
// agreeing on the common attributes combine, payloads multiply with the
// ring product (left payload first, preserving any non-commutative key
// orientation). The output schema is left's schema followed by right's
// attributes not in left. It is Step with left as the delta and every
// pair its own group.
func Join[V any](r ring.Ring[V], left, right *Map[V]) *Map[V] {
	schemas := []value.Schema{left.schema, right.schema}
	return Step(PlanStep(schemas, 0, left.schema.Union(right.schema), ""), r, []*Map[V]{left, right}, nil, nil, false)
}

// Aggregate groups the relation by the attributes of outSchema (which
// must be a subset of m's schema) and sums payloads with the ring
// addition. If lift is non-nil, each tuple's payload is first multiplied
// by lift applied to the value of liftAttr (payload × lift, in that
// order). It is Step over the one part m.
func Aggregate[V any](r ring.Ring[V], m *Map[V], outSchema value.Schema, liftAttr string, lift ring.Lift[V]) *Map[V] {
	if lift == nil {
		liftAttr = ""
	}
	return Step(PlanStep([]value.Schema{m.schema}, 0, outSchema, liftAttr), r, []*Map[V]{m}, lift, nil, false)
}

// lookup is how Step finds the entries of one probed part by their
// projection: the part's persistent index, or a throwaway one built for
// this call.
type lookup[V any] struct {
	ix    *index[V]
	built map[string][]*entry[V]
}

// lookupOn returns the lookup of m on proj for a delta of n tuples. A
// registered persistent index serves, materialized on its first probe,
// unless bulk is set, it is unbuilt and m is smaller than the delta:
// then the call indexes m for itself — the bulk-load case, where the
// loaded relation is the delta and the larger side, so no persistent
// index is materialized on a smaller sibling.
func lookupOn[V any](m *Map[V], proj []int, n int, bulk bool) lookup[V] {
	if ix := m.indexOn(proj); ix != nil && (ix.built || !bulk || m.Len() >= n) {
		ix.ensure(m)
		return lookup[V]{ix: ix}
	}
	built := make(map[string][]*entry[V], m.Len())
	var arr [64]byte
	for _, e := range m.data {
		kbuf := e.tuple.AppendEncodeProject(arr[:0], proj)
		built[string(kbuf)] = append(built[string(kbuf)], e)
	}
	return lookup[V]{built: built}
}

func (l lookup[V]) find(key []byte) []*entry[V] {
	if l.ix != nil {
		return l.ix.lookup(key)
	}
	return l.built[string(key)]
}

// appendRefs appends the encoding of the values refs name in the bound
// entries to buf.
func appendRefs[V any](buf []byte, refs []ref, bound []*entry[V]) []byte {
	for _, r := range refs {
		buf = bound[r.part].tuple[r.pos].AppendEncode(buf)
	}
	return buf
}

// inlineParts is the part count Step keeps its per-call state on the
// stack for; wider steps allocate it.
const inlineParts = 4

// cursor walks the matches of one probe.
type cursor[V any] struct {
	m []*entry[V]
	i int
}

// Step is the one join kernel, the delta rule δV = ⊕_X (δV_child ⊗
// V_sibling ⊗ … ⊗ g_X) as a single pass over k parts, one of them (the
// plan's delta position) the delta. It iterates the delta and probes
// every other part in operand order on the attributes bound so far; for
// every combination of matching tuples it multiplies the payloads in
// operand order 0..k−1, whatever the probe order (the test-only
// Relational and Matrix rings are not commutative), applies the plan's
// lift (lift must be non-nil iff the plan names one), encodes the
// plan's group key straight from the source tuples and folds the
// product into that group of out. The join in front of the aggregation
// is never materialized. k = 1 is a plain aggregation: no probes, and
// an unlifted payload is stored as is, flagged shared on both sides.
// Cartesian products probe one empty-key bucket.
//
// out must be empty and over the plan's group-by schema; nil allocates a relation sized
// for the delta. Step owns what it puts there: a group's first product
// is a fresh product — carved from out's slab when out keeps one — and
// later ones fold into it in place through Scratch.MulAddInto (Mul +
// Add for rings without Scratch), so nothing folded into is reachable
// from an operand, and the group's tuple and key string materialize
// only on first sight.
//
// Each part is probed through its persistent index on the plan's
// IndexKey (AddIndex), materialized on the first probe — steady-state
// maintenance, O(|delta| + |matches|). bulk marks a bulk load's step:
// then a part smaller than the delta whose index is still unbuilt is
// indexed for this call alone, O(|part|), since the loaded relation is
// the delta and the larger side. Both find the same matches, so the
// choice changes only the order in which a group's products are added,
// which can differ in the last bits of inexact float sums.
func Step[V any](plan *StepPlan, r ring.Ring[V], parts []*Map[V], lift ring.Lift[V], out *Map[V], bulk bool) *Map[V] {
	delta := parts[plan.delta]
	if out == nil {
		out = NewSized[V](plan.out, delta.Len())
	}
	for _, m := range parts {
		if m.Len() == 0 {
			return out
		}
	}
	var (
		lookArr [inlineParts]lookup[V]
		curArr  [inlineParts]cursor[V]
		entArr  [inlineParts]*entry[V]
		karr    [64]byte
	)
	k := len(plan.probes) + 1
	looks, cur, bound := lookArr[:0], curArr[:], entArr[:]
	if k > inlineParts {
		cur, bound = make([]cursor[V], k), make([]*entry[V], k)
	}
	for _, pr := range plan.probes {
		looks = append(looks, lookupOn(parts[pr.part], pr.index, delta.Len(), bulk))
	}
	out.slabFor(r)
	f := folder[V]{plan: plan, r: r, sc: scratchOf(r), lift: lift, out: out}
	probes, last := plan.probes, len(plan.probes)-1
	for _, de := range delta.data {
		bound[plan.delta] = de
		lvl := 0
		if last >= 0 {
			cur[0] = cursor[V]{m: looks[0].find(appendRefs(karr[:0], probes[0].key, bound))}
		}
		for {
			// Bind the next match at the current level and descend until
			// every part is bound; an exhausted level climbs back up.
			if last >= 0 {
				c := &cur[lvl]
				if c.i == len(c.m) {
					if lvl == 0 {
						break
					}
					lvl--
					continue
				}
				bound[probes[lvl].part] = c.m[c.i]
				c.i++
				if lvl < last {
					lvl++
					cur[lvl] = cursor[V]{m: looks[lvl].find(appendRefs(karr[:0], probes[lvl].key, bound))}
					continue
				}
			}
			f.fold(bound[:k])
			if last < 0 {
				break
			}
		}
	}
	return out
}

// folder is Step's per-call state for folding one binding of every part
// into the output.
type folder[V any] struct {
	plan *StepPlan
	r    ring.Ring[V]
	sc   ring.Scratch[V]
	lift ring.Lift[V]
	out  *Map[V]
}

// fold multiplies the bound payloads in operand order, applies the lift
// and folds the product into its group of the output. The product's
// last factor — the lift, else the last part's payload — is held back,
// so a group already seen takes it fused (Scratch.MulAddInto). The products
// before it and the lift are scratch values, carved from the output's
// slab and handed back once used when it keeps one.
func (f *folder[V]) fold(bound []*entry[V]) {
	r, out, k := f.r, f.out, len(bound)
	var arr [64]byte
	key := appendRefs(arr[:0], f.plan.group, bound)
	g, seen := out.data[string(key)]
	// p becomes the product of bound[:n]'s payloads; last is the factor
	// held back, and product whether there is one.
	lr, n := f.plan.lift, k
	var last V
	if lr.part >= 0 {
		last = out.lift(f.lift, bound[lr.part].tuple[lr.pos])
	} else if k > 1 {
		n--
		last = bound[n].payload
	}
	product := n < k || lr.part >= 0
	p := bound[0].payload
	for i, e := range bound[1:n] {
		q := out.mul(r, p, e.payload)
		if i > 0 {
			out.release(p)
		}
		p = q
	}
	if product {
		if seen && f.sc != nil && !g.shared {
			zero := settle(r, g, g.payload, f.sc.MulAddInto(g.payload, p, last))
			f.releaseScratch(n, p, last)
			if zero {
				delete(out.data, string(key))
				out.drop(g)
			}
			return
		}
		q := out.mul(r, p, last)
		f.releaseScratch(n, p, last)
		p = q
	}
	if r.IsZero(p) {
		if product {
			out.release(p)
		}
		return
	}
	if seen {
		if out.add(r, f.sc, g, p) {
			delete(out.data, string(key))
			out.drop(g)
		}
		if product {
			out.release(p)
		}
		return
	}
	// A payload stored straight from the one part (k = 1, nothing
	// lifted) is a copy carved from the output's slab when it keeps one
	// and the part owns the payload (the part recycles its slot once it
	// drops it). Otherwise it is now referenced by both relations, so
	// both entries are flagged and whichever side accumulates next
	// copies on write. Only the flag of the part's entry is written, and
	// only by the one goroutine stepping it (see the package doc).
	shared := false
	if !product {
		if sb := out.slabFor(r); sb != nil && !bound[0].shared {
			p = sb.Own(p)
		} else {
			bound[0].shared, shared = true, true
		}
	}
	t := make(value.Tuple, len(f.plan.group))
	for i, gr := range f.plan.group {
		t[i] = bound[gr.part].tuple[gr.pos]
	}
	out.data[string(key)] = out.newEntry(t, p, shared)
}

// releaseScratch hands fold's scratch values back to the output's slab:
// p when it is a product of the parts before the last factor (n > 1),
// and last when it is the lift.
func (f *folder[V]) releaseScratch(n int, p, last V) {
	if n > 1 {
		f.out.release(p)
	}
	if f.plan.lift.part >= 0 {
		f.out.release(last)
	}
}

// mul returns a×b: carved from m's slab when it keeps one, so m owns
// it, and a fresh value otherwise.
func (m *Map[V]) mul(r ring.Ring[V], a, b V) V {
	if m.slab != nil {
		return m.slab.Mul(a, b)
	}
	return r.Mul(a, b)
}

// lift returns l(x), written into a slot of m's slab when it keeps one.
func (m *Map[V]) lift(l ring.Lift[V], x value.Value) V {
	if m.slab != nil {
		return m.slab.Lift(l, x)
	}
	var zero V
	return l(zero, x)
}

// FromTuples builds a relation from raw tuples, assigning each the ring
// One payload and merging duplicates (so duplicate input tuples get
// multiplicity 2·One, matching bag semantics).
func FromTuples[V any](r ring.Ring[V], schema value.Schema, tuples []value.Tuple) *Map[V] {
	out := New[V](schema)
	one := r.One()
	for _, t := range tuples {
		out.Merge(r, t, one)
	}
	return out
}
