package view

import (
	"fmt"
	"math"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
)

// Update is one tuple-level change to an input relation: Mult > 0
// inserts the tuple Mult times, Mult < 0 deletes it.
type Update struct {
	Rel   string
	Tuple value.Tuple
	Mult  int
}

// ApplyDelta applies a delta relation (tuples with ring payloads;
// negative payloads are deletes) to input relation name and propagates
// it along the leaf-to-root path, maintaining every view on the way and
// the query result at the top. This is the paper's maintenance
// mechanism: at each node the delta joins the materialized views of the
// node's other children and the full contents of its other anchored
// relations, then marginalizes the node's variable.
//
// The work splits into a read-only propagation (compute the delta view
// at every path node — see propagate) and a commit (merge those deltas
// into the views with the ring addition).
func (t *Tree[V]) ApplyDelta(name string, delta *relation.Map[V]) error {
	src, ok := t.sources[name]
	if !ok {
		return fmt.Errorf("view: unknown relation %s", name)
	}
	if !delta.Schema().Equal(src.schema) {
		return fmt.Errorf("view: delta schema %v does not match %s schema %v", delta.Schema(), name, src.schema)
	}
	t.stats.Updates++
	t.stats.DeltaTuples += t.apply(src, delta, false, false)
	return nil
}

// apply is ApplyDelta past validation and accounting, shared with the
// bulk load: propagate the delta into the recycled step buffers, merge
// it into its source when the source is stored, commit the steps,
// release the buffers. A delta of src's anchor view (view set: a
// snapshot's form 1) is the anchor's step itself: commit absorbs it
// into the anchor view, and it propagates from the anchor's parent.
// bulk marks the bulk load's steps (see relation.Step). It returns the
// number of delta tuples applied.
func (t *Tree[V]) apply(src *source[V], delta *relation.Map[V], view, bulk bool) int {
	if delta.Len() == 0 {
		return 0
	}
	path, exclude := src.path, src.data
	p := propagation[V]{steps: t.propSteps[:0]}
	if view {
		p.steps, exclude = append(p.steps, delta), src.anchor.view
	}
	p = t.propagate(p, exclude, delta, path, bulk)
	if src.data != nil {
		src.data.MergeAll(t.ring, delta)
	}
	n := delta.Len() + t.commit(p, path)
	// Empty the buffers and the steps scratch, so nothing of the merged
	// delta outlives the call pinned to them.
	for i := range p.steps {
		path[i].buf.release()
		p.steps[i] = nil
	}
	t.resBuf.release()
	t.propSteps = p.steps[:0]
	return n
}

// propagation is the read-only half of one delta application: the delta
// view computed at every node of the leaf-to-root path, plus the delta
// of the query result.
type propagation[V any] struct {
	// steps[i] is the delta view for path[i]; the slice stops early when
	// a delta cancels to empty (nothing further can change upward).
	steps []*relation.Map[V]
	// dres is the result-level delta (nil when the propagation died out
	// before reaching the root).
	dres *relation.Map[V]
}

// pathOf returns the leaf-to-root node path starting at anchor n.
func pathOf[V any](n *Node[V]) []*Node[V] {
	var out []*Node[V]
	for ; n != nil; n = n.parent {
		out = append(out, n)
	}
	return out
}

// propagate computes the delta views along path WITHOUT changing any
// view's contents: at each node the delta joins the materialized views
// of the node's other children and the full contents of its other
// anchored relations — all off-path state — and the node's variable is
// marginalized, one relation.Step per node over the plan of the part
// the delta replaces (Node.steps), which iterates the delta. d is
// the delta of exclude, the operand it replaces at the first node p has
// no step for yet; bulk marks a bulk load's steps. The steps evaluate
// into the path nodes' and the tree's recycled buffers and the tree's
// steps scratch, which apply releases after its commit.
func (t *Tree[V]) propagate(p propagation[V], exclude, d *relation.Map[V], path []*Node[V], bulk bool) propagation[V] {
	var arr [4]*relation.Map[V]
	for _, n := range path[len(p.steps):] {
		parts, at := n.parts(arr[:0], exclude, d)
		d = relation.Step(n.steps[at], t.ring, parts, n.lift, n.buf.take(n.keys, d.Len()), bulk)
		p.steps = append(p.steps, d)
		if d.Len() == 0 {
			return p // the delta cancelled out; nothing to propagate
		}
		exclude = n.view
	}
	// d reached the root: join with the other root views (disconnected
	// queries) and project to the result schema, replaying the root's
	// build-time plan. Like the path steps this probes the other roots'
	// persistent indexes rather than scanning their views.
	root := path[len(path)-1]
	parts := append(arr[:0], d)
	for _, o := range root.resOthers {
		parts = append(parts, o.view)
	}
	p.dres = relation.Step(root.resStep, t.ring, parts, nil, t.resBuf.take(t.result.Schema(), d.Len()), bulk)
	return p
}

// commit merges one propagation into the tree — each step into its path
// node's view, the result delta into the query result — and returns the
// number of tuples merged (the caller adds it to t.stats). Absorb folds
// into payloads a view owns IN PLACE.
func (t *Tree[V]) commit(p propagation[V], path []*Node[V]) int {
	n := 0
	for i, d := range p.steps {
		if d.Len() == 0 {
			continue
		}
		path[i].view.Absorb(t.ring, d)
		n += d.Len()
	}
	if p.dres != nil && p.dres.Len() > 0 {
		t.result.Absorb(t.ring, p.dres)
		n += p.dres.Len()
	}
	return n
}

// ApplyUpdates groups tuple-level updates by relation and applies one
// delta per relation, in first-appearance order. This is the bulk-update
// entry point used by the demo scenarios (e.g. bulks of 10K updates).
// It is all-or-nothing: an unknown relation or a wrong-arity tuple
// anywhere in ups fails the call before any delta is applied.
//
// The per-relation delta buffers are owned by the tree and recycled
// across calls (Reset, not reallocated). Views that retained a buffer's
// payload hold it flagged shared, or their own copy of one the buffer
// owned, and the refill never mutates a payload the buffer has handed
// out (Reset drops them), so they stay valid. This is safe under the
// tree's existing single-writer contract.
func (t *Tree[V]) ApplyUpdates(ups []Update) error {
	order := t.updOrder[:0]
	for _, u := range ups {
		src, err := t.sourceFor(u)
		if err != nil {
			for _, name := range order {
				t.sources[name].inBatch = false
			}
			t.updOrder = order[:0]
			return err
		}
		if !src.inBatch {
			src.inBatch = true
			if src.delta == nil {
				src.delta = relation.New[V](src.schema)
			} else {
				src.delta.Reset()
			}
			order = append(order, u.Rel)
		}
		src.delta.Merge(t.ring, u.Tuple, t.payloadFor(u.Mult))
	}
	var err error
	for _, name := range order {
		src := t.sources[name]
		src.inBatch = false
		if err == nil {
			err = t.ApplyDelta(name, src.delta)
		}
	}
	t.updOrder = order[:0]
	return err
}

// sourceFor returns the input relation update u targets, failing on an
// unknown relation or a tuple check refuses — a caller's error (e.g. a
// WAL written under an older schema), not a reason to panic in the
// relation layer.
func (t *Tree[V]) sourceFor(u Update) (*source[V], error) {
	src, ok := t.sources[u.Rel]
	if !ok {
		return nil, fmt.Errorf("view: unknown relation %s", u.Rel)
	}
	if err := src.check(u.Tuple); err != nil {
		return nil, err
	}
	return src, nil
}

// CheckUpdate reports the error ApplyUpdates would refuse u's batch
// with, so an ingestion layer can refuse a request before accepting
// it. Like DeltaFor it only reads immutable tree metadata.
func (t *Tree[V]) CheckUpdate(u Update) error {
	_, err := t.sourceFor(u)
	return err
}

// MaxNumeric bounds the magnitude of a Spec.Numeric value. The covar
// rings hold sums of x and of pairwise products x·y, so every term
// stays within 1e200 and a sum of 2^53 of them within 1e216, far from
// float64 overflow near 1.8e308. A larger value could overflow Q to
// ±Inf, and deleting it again would leave Inf − Inf = NaN behind for
// good.
const MaxNumeric = 1e100

// check fails when tuple does not have the relation's attribute count,
// or a numeric attribute's value is not finite or exceeds MaxNumeric in
// magnitude.
func (s *source[V]) check(tuple value.Tuple) error {
	if len(tuple) != s.schema.Len() {
		return fmt.Errorf("view: relation %s has %d attributes %v, got a tuple of %d", s.name, s.schema.Len(), s.schema, len(tuple))
	}
	for _, i := range s.numeric {
		if x := tuple[i].AsFloat(); !(math.Abs(x) <= MaxNumeric) {
			return fmt.Errorf("view: relation %s: %s = %v is not a finite number within ±%g", s.name, s.schema.Attr(i), tuple[i], MaxNumeric)
		}
	}
	return nil
}

// scaledOne returns n × 1 (n ≥ 0) in the ring by binary doubling, so a
// large multiplicity costs O(log n) ring additions instead of n.
func scaledOne[V any](r ring.Ring[V], n int) V {
	acc := r.Zero()
	pow := r.One()
	for n > 0 {
		if n&1 == 1 {
			acc = r.Add(acc, pow)
		}
		n >>= 1
		if n > 0 {
			pow = r.Add(pow, pow)
		}
	}
	return acc
}

// payloadFor returns mult × 1 in the ring (negative for deletes). The
// ±1 payloads of single-tuple updates come from the tree's shared cache:
// relations flag an entry inserted from a caller's payload as shared and
// never fold into it in place, so one value can back any number of
// tuples.
func (t *Tree[V]) payloadFor(mult int) V {
	switch mult {
	case 1:
		return t.one
	case -1:
		return t.negOne
	}
	if mult < 0 {
		return t.ring.Neg(scaledOne(t.ring, -mult))
	}
	return scaledOne(t.ring, mult)
}

// DeltaFor builds a delta relation for rel from (tuple, multiplicity)
// pairs, for callers that want to drive ApplyDelta directly. An update
// for another relation or of the wrong arity fails the whole call.
func (t *Tree[V]) DeltaFor(rel string, ups []Update) (*relation.Map[V], error) {
	src, ok := t.sources[rel]
	if !ok {
		return nil, fmt.Errorf("view: unknown relation %s", rel)
	}
	d := relation.New[V](src.schema)
	for _, u := range ups {
		if u.Rel != rel {
			return nil, fmt.Errorf("view: DeltaFor(%s) got update for %s", rel, u.Rel)
		}
		if err := src.check(u.Tuple); err != nil {
			return nil, err
		}
		d.Merge(t.ring, u.Tuple, t.payloadFor(u.Mult))
	}
	return d, nil
}
