package view

import (
	"fmt"

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
// into the views with the ring addition). When SetParallelism has
// enabled workers and the delta is large enough, both run
// hash-partitioned across goroutines — each worker propagates its
// partition and commits it under per-view merge locks; the resulting
// views are identical either way.
func (t *Tree[V]) ApplyDelta(name string, delta *relation.Map[V]) error {
	src, ok := t.sources[name]
	if !ok {
		return fmt.Errorf("view: unknown relation %s", name)
	}
	if !delta.Schema().Equal(src.schema) {
		return fmt.Errorf("view: delta schema %v does not match %s schema %v", delta.Schema(), name, src.schema)
	}
	t.stats.Updates++
	t.stats.DeltaTuples += t.apply(src, delta)
	return nil
}

// apply is ApplyDelta past validation and accounting, shared with the
// bulk load: it picks the sequential or the parallel body from the
// delta's size and returns the number of delta tuples merged.
func (t *Tree[V]) apply(src *source[V], delta *relation.Map[V]) int {
	if delta.Len() == 0 {
		return 0
	}
	if t.workers > 1 && delta.Len() >= t.minParallel {
		return t.applyDeltaParallel(src, delta, src.path)
	}
	return t.applyDeltaSequential(src, delta, src.path)
}

// applyDeltaSequential is the one-goroutine body of ApplyDelta:
// propagate the whole delta into the recycled step buffers, commit it,
// release the buffers. The parallel path runs the first two steps per
// partition. Like commit it returns the tuples merged.
func (t *Tree[V]) applyDeltaSequential(src *source[V], delta *relation.Map[V], path []*Node[V]) int {
	p := t.propagate(src, delta, path, true)
	src.data.MergeAll(t.ring, delta)
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

// ApplyUpdates groups tuple-level updates by relation and applies one
// delta per relation, in first-appearance order. This is the bulk-update
// entry point used by the demo scenarios (e.g. bulks of 10K updates).
// It is all-or-nothing: an unknown relation or a wrong-arity tuple
// anywhere in ups fails the call before any delta is applied.
//
// The per-relation delta buffers are owned by the tree and recycled
// across calls (Reset, not reallocated). Views that retained a buffer's
// payload hold it flagged shared and the refill never mutates a payload
// the buffer has handed out (Reset drops them), so they stay valid.
// This is safe under the tree's existing single-writer contract.
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
// unknown relation or a tuple of the wrong arity — a caller's error
// (e.g. a WAL written under an older schema), not a reason to panic in
// the relation layer.
func (t *Tree[V]) sourceFor(u Update) (*source[V], error) {
	src, ok := t.sources[u.Rel]
	if !ok {
		return nil, fmt.Errorf("view: unknown relation %s", u.Rel)
	}
	if err := src.checkArity(u.Tuple); err != nil {
		return nil, err
	}
	return src, nil
}

// checkArity fails when tuple does not have the relation's attribute
// count.
func (s *source[V]) checkArity(tuple value.Tuple) error {
	if len(tuple) != s.schema.Len() {
		return fmt.Errorf("view: relation %s has %d attributes %v, got a tuple of %d", s.name, s.schema.Len(), s.schema, len(tuple))
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
		if err := src.checkArity(u.Tuple); err != nil {
			return nil, err
		}
		d.Merge(t.ring, u.Tuple, t.payloadFor(u.Mult))
	}
	return d, nil
}
