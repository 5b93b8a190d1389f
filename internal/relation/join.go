package relation

import (
	"repro/internal/ring"
	"repro/internal/value"
)

// joinOrient is the precomputed geometry of one build/probe orientation
// of a join: the common-key projections of both sides and, per output
// position, which side it reads and at which position — so keys and
// tuples assemble straight from the two source tuples with no
// intermediate Concat/Project allocations.
type joinOrient struct {
	buildCommon []int
	probeCommon []int
	fromBuild   []bool
	srcPos      []int
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

// JoinPlan is the reusable schema geometry of a natural join: which
// attributes are common, where output values come from, for both
// build-side orientations (the smaller side is indexed at run time).
// Deriving it per call costs a dozen allocations — noticeable on
// single-tuple deltas — so the view tree plans each node's joins once
// at build time and replays them with JoinProbeWith.
type JoinPlan struct {
	out value.Schema
	fwd joinOrient // build = right side, probe = left
	rev joinOrient // build = left side, probe = right
}

// Out returns the join's output schema: left's schema followed by
// right's attributes not in left.
func (p *JoinPlan) Out() value.Schema { return p.out }

// LeftIndexKey returns the projection positions (into the left schema)
// of the join's common key — the index the left side must carry for
// JoinProbeWith to probe it when the right side is the small one.
func (p *JoinPlan) LeftIndexKey() []int { return p.rev.buildCommon }

// RightIndexKey is LeftIndexKey for the right side: the positions (into
// the right schema) of the common key JoinProbeWith probes the right
// side's index on.
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

// Join computes the natural join of left and right under ring r: tuples
// agreeing on the common attributes combine, payloads multiply with the
// ring product (left payload first, preserving any non-commutative key
// orientation). The output schema is left's schema followed by right's
// attributes not in left. Callers that join the same schemas repeatedly
// should plan once with PlanJoin and use JoinProbeWith.
func Join[V any](r ring.Ring[V], left, right *Map[V]) *Map[V] {
	return JoinProbeWith(PlanJoin(left.schema, right.schema), r, left, right)
}

// joinMatches merges every (probe-entry × match) pair into out: the
// shared inner loop of JoinWith and JoinProbeWith. Payloads multiply
// left-first regardless of which side is iterated (swapped marks the
// iterated side as the right one). obuf is the reused output-key
// scratch, returned for the caller's next round.
func joinMatches[V any](out *Map[V], r ring.Ring[V], sc ring.Scratch[V], fma ring.FMA[V],
	o *joinOrient, swapped bool, pe *entry[V], matches []*entry[V], obuf []byte) []byte {
	fromBuild, srcPos := o.fromBuild, o.srcPos
	for _, be := range matches {
		// Left payload first, preserving any non-commutative key
		// orientation (the indexed side is left when swapped).
		a, b := pe.payload, be.payload
		if swapped {
			a, b = be.payload, pe.payload
		}
		obuf = obuf[:0]
		for i, fb := range fromBuild {
			if fb {
				obuf = be.tuple[srcPos[i]].AppendEncode(obuf)
			} else {
				obuf = pe.tuple[srcPos[i]].AppendEncode(obuf)
			}
		}
		if e, ok := out.data[string(obuf)]; ok {
			// Duplicate output tuple: fold a×b into the owned
			// accumulator without materializing the product when the
			// ring supports it. out is a fresh, never-indexed map whose
			// entries all hold products it owns.
			var zero bool
			if fma != nil && !e.shared {
				e.payload = fma.MulAddInto(e.payload, a, b)
				zero = r.IsZero(e.payload)
			} else if p := r.Mul(a, b); !r.IsZero(p) {
				zero = e.add(r, sc, p)
			}
			if zero {
				delete(out.data, string(obuf))
				out.drop(e)
			}
			continue
		}
		p := r.Mul(a, b)
		if r.IsZero(p) {
			continue
		}
		// First hit for this output tuple: materialize it (the Mul
		// result p is fresh, so the entry owns it already).
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
	return obuf
}

// JoinWith is Join with a precomputed plan (which must have been built
// from exactly left's and right's schemas).
//
// The implementation is a classic hash join: it indexes the smaller side
// on the common attributes and probes with the larger. A join with no
// common attributes degenerates to the Cartesian product through the
// same machinery (a single empty-key index bucket). Probe keys, output
// keys, and output tuples are built in reused scratch buffers and only
// materialized on first insertion, so re-grouped output tuples cost no
// allocations beyond the ring product. It is what JoinProbeWith falls
// back to when the larger operand carries no index, and the reference
// the probe path is tested against; callers go through JoinProbeWith.
func JoinWith[V any](plan *JoinPlan, r ring.Ring[V], left, right *Map[V]) *Map[V] {
	out := New[V](plan.out)
	if left.Len() == 0 || right.Len() == 0 {
		return out
	}

	build, probe := right, left
	o := &plan.fwd
	swapped := false
	if left.Len() < right.Len() {
		build, probe = left, right
		o = &plan.rev
		swapped = true
	}

	index := make(map[string][]*entry[V], build.Len())
	var kbuf []byte
	for _, e := range build.data {
		kbuf = e.tuple.AppendEncodeProject(kbuf[:0], o.buildCommon)
		index[string(kbuf)] = append(index[string(kbuf)], e)
	}

	sc := scratchOf(r)
	fma, _ := r.(ring.FMA[V])
	var obuf []byte
	for _, pe := range probe.data {
		kbuf = pe.tuple.AppendEncodeProject(kbuf[:0], o.probeCommon)
		matches := index[string(kbuf)]
		if len(matches) == 0 {
			continue
		}
		obuf = joinMatches(out, r, sc, fma, o, swapped, pe, matches, obuf)
	}
	return out
}

// JoinProbeWith is the planned join every caller uses. When the larger
// side carries a persistent index on the join's common key (AddIndex
// with the plan's Left/RightIndexKey) it iterates only the smaller side
// — the delta, in steady-state maintenance — and looks matches up in the
// index: O(|small| + |matches|) instead of the build-and-scan join's
// O(|large|). When the larger side has no matching index it falls back
// to JoinWith — the bulk-load case, where the loaded relation is the
// larger operand and, being a delta, carries none. The choice follows
// from what the join observes, not from which entry point called it.
// Both paths visit the same multiset of payload products in the same
// left-first per-pair order, so results are bit-identical whenever ring
// addition is exact (integer rings, float rings over integer-valued
// data — the same scope as the parallel path's guarantee, see
// view.Tree.SetParallelism): the two paths iterate opposite sides,
// which can group an output key's float64 additions differently in the
// last bits on inexact data.
func JoinProbeWith[V any](plan *JoinPlan, r ring.Ring[V], left, right *Map[V]) *Map[V] {
	if left.Len() == 0 || right.Len() == 0 {
		return New[V](plan.out)
	}
	// Iterate the smaller side, probe the larger side's index. Note the
	// iteration side is the OPPOSITE of JoinWith's (which indexes the
	// smaller side and iterates the larger) — same matches and products,
	// different accumulation grouping; see the doc comment's exact-ring
	// scope for what that means on inexact float data.
	outer, inner := left, right
	o := &plan.fwd
	swapped := false
	if right.Len() < left.Len() {
		outer, inner = right, left
		o = &plan.rev
		swapped = true
	}
	idx := inner.indexOn(o.buildCommon)
	if idx == nil {
		return JoinWith(plan, r, left, right)
	}
	idx.ensure(inner) // first probe materializes a lazily registered index
	out := New[V](plan.out)
	sc := scratchOf(r)
	fma, _ := r.(ring.FMA[V])
	var arr [64]byte
	kbuf, obuf := arr[:0], []byte(nil)
	for _, pe := range outer.data {
		kbuf = pe.tuple.AppendEncodeProject(kbuf[:0], o.probeCommon)
		matches := idx.lookup(kbuf)
		if len(matches) == 0 {
			continue
		}
		obuf = joinMatches(out, r, sc, fma, o, swapped, pe, matches, obuf)
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
	return AggregateWith(PlanAggregate(m.schema, outSchema, liftAttr), r, m, lift)
}

// AggregateWith is Aggregate with a precomputed plan (which must have
// been built from exactly m's schema; lift must be non-nil iff the plan
// named a lift attribute).
func AggregateWith[V any](plan *AggPlan, r ring.Ring[V], m *Map[V], lift ring.Lift[V]) *Map[V] {
	out := New[V](plan.out)
	sc := scratchOf(r)
	proj := plan.proj
	var kbuf []byte
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
