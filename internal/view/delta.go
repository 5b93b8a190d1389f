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
	if delta.Len() == 0 {
		return nil
	}
	path := src.path
	if t.workers > 1 && delta.Len() >= t.minParallel {
		t.applyDeltaParallel(src, delta, path)
		return nil
	}
	t.applyDeltaSequential(src, delta, path)
	return nil
}

// applyDeltaSequential is the one-goroutine body of ApplyDelta:
// propagate the whole delta, then commit it. The parallel path runs the
// same two steps per partition.
func (t *Tree[V]) applyDeltaSequential(src *source[V], delta *relation.Map[V], path []*Node[V]) {
	p := t.propagate(src, delta, path, t.propSteps[:0])
	src.data.MergeAll(t.ring, delta)
	t.stats.DeltaTuples += delta.Len() + t.commit(p, path)
	// Recycle the steps buffer, dropping the references so the merged
	// delta relations do not outlive the call pinned to the scratch.
	for i := range p.steps {
		p.steps[i] = nil
	}
	t.propSteps = p.steps[:0]
}

// ApplyUpdates groups tuple-level updates by relation and applies one
// delta per relation, in first-appearance order. This is the bulk-update
// entry point used by the demo scenarios (e.g. bulks of 10K updates).
//
// The per-relation delta buffers are owned by the tree and recycled
// across calls (Reset, not reallocated). Views that retained a buffer's
// payload hold it flagged shared and the refill never mutates a payload
// the buffer has handed out (Reset drops them), so they stay valid.
// This is safe under the tree's existing single-writer contract.
func (t *Tree[V]) ApplyUpdates(ups []Update) error {
	order := t.updOrder[:0]
	for _, u := range ups {
		src, ok := t.sources[u.Rel]
		if !ok {
			for _, name := range order {
				t.sources[name].inBatch = false
			}
			t.updOrder = order[:0]
			return fmt.Errorf("view: unknown relation %s", u.Rel)
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

// Insert is a convenience wrapper applying single-tuple inserts to one
// relation.
func (t *Tree[V]) Insert(rel string, tuples ...value.Tuple) error {
	ups := make([]Update, len(tuples))
	for i, tp := range tuples {
		ups[i] = Update{Rel: rel, Tuple: tp, Mult: 1}
	}
	return t.ApplyUpdates(ups)
}

// Delete is a convenience wrapper applying single-tuple deletes to one
// relation.
func (t *Tree[V]) Delete(rel string, tuples ...value.Tuple) error {
	ups := make([]Update, len(tuples))
	for i, tp := range tuples {
		ups[i] = Update{Rel: rel, Tuple: tp, Mult: -1}
	}
	return t.ApplyUpdates(ups)
}

// Coalesce merges updates that target the same relation and tuple by
// summing their multiplicities — the paper's batch-update preprocessing:
// an insert and a delete of the same tuple inside one batch cancel
// before any view work happens. Updates that net to zero are dropped;
// the first-appearance order of surviving (relation, tuple) pairs is
// preserved. The input is not modified.
//
// No maintenance path needs it anymore: DeltaFor (and so the serving
// pipeline's delta build) coalesces inherently by merging payloads
// under the ring addition. It remains for callers that want to shrink
// an update stream while it is still a []Update — e.g. before
// transporting or logging one.
func Coalesce(ups []Update) []Update {
	type slot struct {
		pos  int
		mult int
	}
	merged := make(map[string]slot, len(ups))
	out := make([]Update, 0, len(ups))
	for _, u := range ups {
		k := u.Rel + "\x00" + u.Tuple.Encode()
		if s, ok := merged[k]; ok {
			s.mult += u.Mult
			merged[k] = s
			out[s.pos].Mult = s.mult
			continue
		}
		merged[k] = slot{pos: len(out), mult: u.Mult}
		out = append(out, u)
	}
	compact := out[:0]
	for _, u := range out {
		if u.Mult != 0 {
			compact = append(compact, u)
		}
	}
	return compact
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
// pairs, for callers that want to drive ApplyDelta directly.
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
		d.Merge(t.ring, u.Tuple, t.payloadFor(u.Mult))
	}
	return d, nil
}
