package relation

import (
	"repro/internal/ring"
	"repro/internal/value"
)

// joinOrient is the precomputed geometry of one build/probe orientation
// of a join: the common-key projections of both sides and, per output
// position, which side it reads and at which position — so keys and
// tuples assemble straight from the two source tuples with no
// intermediate Concat/Project allocations. liftPos >= 0 names the
// lifted attribute the same way (liftFromBuild, position).
type joinOrient struct {
	buildCommon   []int
	probeCommon   []int
	fromBuild     []bool
	srcPos        []int
	liftFromBuild bool
	liftPos       int
}

func orientJoin(probe, build, out value.Schema) joinOrient {
	common := probe.Intersect(build)
	buildExtra := build.Minus(probe)
	buildExtraIdx := build.MustProject(buildExtra)
	joined := probe.Union(buildExtra)
	reorder := joined.MustProject(out)
	plen := probe.Len()
	o := joinOrient{
		buildCommon: build.MustProject(common),
		probeCommon: probe.MustProject(common),
		fromBuild:   make([]bool, len(reorder)),
		srcPos:      make([]int, len(reorder)),
		liftPos:     -1,
	}
	for i, j := range reorder {
		if j < plen {
			o.srcPos[i] = j
		} else {
			o.fromBuild[i] = true
			o.srcPos[i] = buildExtraIdx[j-plen]
		}
	}
	return o
}

// then composes the orientation with an aggregation of the join's
// output: output position i reads what the join's position agg.proj[i]
// read, and the lift attribute resolves to its source tuple likewise.
func (o joinOrient) then(agg *AggPlan) joinOrient {
	f := joinOrient{
		buildCommon: o.buildCommon,
		probeCommon: o.probeCommon,
		fromBuild:   make([]bool, len(agg.proj)),
		srcPos:      make([]int, len(agg.proj)),
		liftPos:     -1,
	}
	for i, j := range agg.proj {
		f.fromBuild[i], f.srcPos[i] = o.fromBuild[j], o.srcPos[j]
	}
	if agg.liftIdx >= 0 {
		f.liftFromBuild, f.liftPos = o.fromBuild[agg.liftIdx], o.srcPos[agg.liftIdx]
	}
	return f
}

// JoinPlan is the reusable schema geometry of one Step: a natural join,
// optionally fused with the aggregation that follows it (Then) — which
// attributes are common and where each output value and the lifted
// value come from, for both orientations (which side is iterated is
// decided at run time). Deriving it per call costs a dozen allocations
// — noticeable on single-tuple deltas — so the view tree plans each
// node's steps once at build time and replays them.
type JoinPlan struct {
	out value.Schema
	fwd joinOrient // build = right side, probe = left
	rev joinOrient // build = left side, probe = right
}

// Out returns the step's output schema: for a plain join left's schema
// followed by right's attributes not in left, for a fused plan the
// aggregation's group-by schema.
func (p *JoinPlan) Out() value.Schema { return p.out }

// LeftIndexKey returns the projection positions (into the left schema)
// of the join's common key — the index the left side must carry for
// Step to probe it when the right side is the small one.
func (p *JoinPlan) LeftIndexKey() []int { return p.rev.buildCommon }

// RightIndexKey is LeftIndexKey for the right side: the positions (into
// the right schema) of the common key Step probes the right side's
// index on.
func (p *JoinPlan) RightIndexKey() []int { return p.fwd.buildCommon }

// PlanJoin precomputes the join geometry for relations over the two
// schemas.
func PlanJoin(left, right value.Schema) *JoinPlan {
	out := left.Union(right)
	return &JoinPlan{
		out: out,
		fwd: orientJoin(left, right, out),
		rev: orientJoin(right, left, out),
	}
}

// Then returns the plan of this join fused with the aggregation agg of
// its output (agg must have been planned from p.Out()): Step groups by
// agg's schema and applies its lift pair by pair, and the join is never
// materialized.
func (p *JoinPlan) Then(agg *AggPlan) *JoinPlan {
	return &JoinPlan{out: agg.out, fwd: p.fwd.then(agg), rev: p.rev.then(agg)}
}

// Join computes the natural join of left and right under ring r: tuples
// agreeing on the common attributes combine, payloads multiply with the
// ring product (left payload first, preserving any non-commutative key
// orientation). The output schema is left's schema followed by right's
// attributes not in left. Callers that join the same schemas repeatedly
// should plan once with PlanJoin and use JoinProbeWith.
func Join[V any](r ring.Ring[V], left, right *Map[V]) *Map[V] {
	return JoinProbeWith(PlanJoin(left.schema, right.schema), r, left, right)
}

// JoinWith is the planned join forced onto the build-and-scan
// orientation whatever indexes the operands carry: the reference the
// index probe is tested against. Callers go through JoinProbeWith.
func JoinWith[V any](plan *JoinPlan, r ring.Ring[V], left, right *Map[V]) *Map[V] {
	return step(plan, r, left, right, nil, nil, true)
}

// JoinProbeWith is Step materializing a plain join (plan from PlanJoin)
// into a fresh relation.
func JoinProbeWith[V any](plan *JoinPlan, r ring.Ring[V], left, right *Map[V]) *Map[V] {
	return step(plan, r, left, right, nil, nil, false)
}

// Step is the one join kernel, the delta rule δV = ⊕_X (δV_child ⊗
// V_sibling ⊗ g_X) as a single pass: for every matching pair of tuples
// it multiplies the payloads left-first (whichever side is iterated —
// the test-only Relational and Matrix rings are not commutative),
// applies the plan's lift (lift must be non-nil iff the plan names
// one), encodes the plan's group key straight from the two source
// tuples and folds the product into that group of out. Under a fused plan (JoinPlan.Then) that is a
// join followed by an aggregation whose intermediate is never built;
// under a plain plan every pair is its own group. Cartesian products
// run through the same machinery (one empty-key bucket).
//
// out must be empty and over plan.Out(); nil allocates a relation sized
// for the iterated side. Step owns what it puts there: a group's first
// product is a fresh Mul result, later ones fold into it in place
// (FMA.MulAddInto when nothing is lifted, Mul + entry.add otherwise),
// so nothing folded into is reachable from an operand, and the group's
// tuple and key string materialize only on first sight.
//
// Orientation follows from what the join observes, not from the caller.
// When the larger side carries a persistent index on the common key
// (AddIndex with the plan's Left/RightIndexKey) Step iterates only the
// smaller side — the delta, in steady-state maintenance — and looks
// matches up there: O(|small| + |matches|). Otherwise it builds a
// throwaway index on the smaller side and scans the larger, O(|large|)
// — the bulk-load case, where the loaded relation is the larger operand
// and, being a delta, carries none, so no index is materialized on a
// smaller sibling. Both visit the same multiset of payload products in
// the same left-first per-pair order, so results are bit-identical
// whenever ring addition is exact (integer rings, float rings over
// integer-valued data); they iterate opposite
// sides, which can group a key's float64 additions differently in the
// last bits on inexact data.
func Step[V any](plan *JoinPlan, r ring.Ring[V], left, right *Map[V], lift ring.Lift[V], out *Map[V]) *Map[V] {
	return step(plan, r, left, right, lift, out, false)
}

// sides returns the operand step iterates, the one it looks matches up
// in, and their geometry; swapped iterates the right operand.
func sides[V any](plan *JoinPlan, left, right *Map[V], swapped bool) (iter, look *Map[V], o *joinOrient) {
	if swapped {
		return right, left, &plan.rev
	}
	return left, right, &plan.fwd
}

// step is Step; scan forces the build-and-scan orientation whatever
// indexes the operands carry (JoinWith, the tests' reference).
func step[V any](plan *JoinPlan, r ring.Ring[V], left, right *Map[V], lift ring.Lift[V], out *Map[V], scan bool) *Map[V] {
	if left.Len() == 0 || right.Len() == 0 {
		if out == nil {
			out = New[V](plan.out)
		}
		return out
	}
	// Index probe: iterate the smaller side (left on a tie).
	swapped := right.Len() < left.Len()
	iter, look, o := sides(plan, left, right, swapped)
	var karr, oarr [64]byte
	kbuf, obuf := karr[:0], oarr[:0]
	var idx *index[V]
	var built map[string][]*entry[V]
	if !scan {
		idx = look.indexOn(o.buildCommon)
	}
	if idx != nil {
		idx.ensure(look) // first probe materializes a lazily registered index
	} else {
		// Build and scan: index the smaller side (right on a tie).
		swapped = left.Len() < right.Len()
		iter, look, o = sides(plan, left, right, swapped)
		built = make(map[string][]*entry[V], look.Len())
		for _, e := range look.data {
			kbuf = e.tuple.AppendEncodeProject(kbuf[:0], o.buildCommon)
			built[string(kbuf)] = append(built[string(kbuf)], e)
		}
	}
	if out == nil {
		out = NewSized[V](plan.out, iter.Len())
	}
	fromBuild, srcPos := o.fromBuild, o.srcPos
	sc := scratchOf(r)
	fma, _ := r.(ring.FMA[V])
	if lift != nil {
		fma = nil
	}
	for _, pe := range iter.data {
		kbuf = pe.tuple.AppendEncodeProject(kbuf[:0], o.probeCommon)
		var matches []*entry[V]
		if idx != nil {
			matches = idx.lookup(kbuf)
		} else {
			matches = built[string(kbuf)]
		}
		for _, be := range matches {
			a, b := pe.payload, be.payload
			if swapped {
				a, b = b, a
			}
			obuf = obuf[:0]
			for i, fb := range fromBuild {
				if fb {
					obuf = be.tuple[srcPos[i]].AppendEncode(obuf)
				} else {
					obuf = pe.tuple[srcPos[i]].AppendEncode(obuf)
				}
			}
			g, seen := out.data[string(obuf)]
			if seen && fma != nil && !g.shared {
				g.payload = fma.MulAddInto(g.payload, a, b)
				if r.IsZero(g.payload) {
					delete(out.data, string(obuf))
					out.drop(g)
				}
				continue
			}
			p := r.Mul(a, b)
			if lift != nil {
				lv := pe.tuple
				if o.liftFromBuild {
					lv = be.tuple
				}
				p = r.Mul(p, lift(lv[o.liftPos]))
			}
			if r.IsZero(p) {
				continue
			}
			if seen {
				if g.add(r, sc, p) {
					delete(out.data, string(obuf))
					out.drop(g)
				}
				continue
			}
			t := make(value.Tuple, len(fromBuild))
			for i, fb := range fromBuild {
				if fb {
					t[i] = be.tuple[srcPos[i]]
				} else {
					t[i] = pe.tuple[srcPos[i]]
				}
			}
			out.data[string(obuf)] = out.newEntry(t, p, false)
		}
	}
	return out
}

// AggPlan is the reusable geometry of a group-by aggregation: the
// positions projected into the group key and the position of the lifted
// attribute (-1 when no lift applies). Like JoinPlan it exists so
// repeated aggregations over fixed schemas (every view-tree node) pay
// for schema derivation once.
type AggPlan struct {
	out     value.Schema
	proj    []int
	liftIdx int
}

// Out returns the aggregation's output (group-by) schema.
func (p *AggPlan) Out() value.Schema { return p.out }

// PlanAggregate precomputes the aggregation geometry from in onto
// outSchema (which must be a subset of in). liftAttr names the lifted
// attribute, "" for none; a named attribute must be in the schema.
func PlanAggregate(in, outSchema value.Schema, liftAttr string) *AggPlan {
	p := &AggPlan{out: outSchema, proj: in.MustProject(outSchema), liftIdx: -1}
	if liftAttr != "" {
		p.liftIdx = in.Index(liftAttr)
		if p.liftIdx < 0 {
			panic("relation: lift attribute " + liftAttr + " not in schema " + in.String())
		}
	}
	return p
}

// Aggregate groups the relation by the attributes of outSchema (which
// must be a subset of m's schema) and sums payloads with the ring
// addition. If lift is non-nil, each tuple's payload is first multiplied
// by lift applied to the value of liftAttr (payload × lift, in that
// order). Callers aggregating over fixed schemas repeatedly should plan
// once with PlanAggregate and use AggregateWith.
func Aggregate[V any](r ring.Ring[V], m *Map[V], outSchema value.Schema, liftAttr string, lift ring.Lift[V]) *Map[V] {
	if lift == nil {
		liftAttr = ""
	}
	return AggregateWith(PlanAggregate(m.schema, outSchema, liftAttr), r, m, lift, nil)
}

// AggregateWith is Aggregate with a precomputed plan (which must have
// been built from exactly m's schema; lift must be non-nil iff the plan
// named a lift attribute) into out, which must be empty and over the
// plan's schema; nil allocates a relation sized for m.
func AggregateWith[V any](plan *AggPlan, r ring.Ring[V], m *Map[V], lift ring.Lift[V], out *Map[V]) *Map[V] {
	if out == nil {
		out = NewSized[V](plan.out, m.Len())
	}
	sc := scratchOf(r)
	proj := plan.proj
	var arr [64]byte
	kbuf := arr[:0]
	for _, e := range m.data {
		p := e.payload
		owned := false
		if plan.liftIdx >= 0 {
			// The product is a fresh value the output exclusively owns.
			p = r.Mul(p, lift(e.tuple[plan.liftIdx]))
			owned = true
		}
		if r.IsZero(p) {
			continue
		}
		// Hot path: encode the projected key into the reused scratch
		// buffer; the group tuple (and the key string) materialize only
		// when the group is first seen.
		kbuf = e.tuple.AppendEncodeProject(kbuf[:0], proj)
		if g, ok := out.data[string(kbuf)]; !ok {
			// A payload stored straight from the input (no lift) is now
			// referenced by both relations, so both entries are flagged
			// and whichever side accumulates next copies on write. Only
			// the flag of m's entry is written, and only by the one
			// goroutine aggregating it (see the package doc).
			if !owned {
				e.shared = true
			}
			out.data[string(kbuf)] = out.newEntry(e.tuple.Project(proj), p, !owned)
		} else if g.add(r, sc, p) {
			delete(out.data, string(kbuf))
			out.drop(g)
		}
	}
	return out
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
