package view

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// DefaultParallelThreshold is the delta size (distinct tuples) below
// which ApplyDelta stays sequential even when workers are configured:
// partitioning and goroutine handoff cost more than they save on small
// batches.
const DefaultParallelThreshold = 128

// SetParallelism enables hash-partitioned parallel delta maintenance.
// ApplyDelta splits each incoming delta into `workers` partitions by the
// hash of the anchor node's join key and runs one fused
// propagate+commit worker per live partition: the worker propagates its
// partition leaf-to-root and immediately merges the resulting delta
// views into the tree under short per-map merge locks, so both phases
// scale with workers (PR 3 parallelized only propagation; the
// sequential commit tail it left is gone). workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 restores the sequential path.
// minBatch <= 0 selects DefaultParallelThreshold; deltas smaller than
// minBatch are applied sequentially regardless of workers.
//
// Correctness rests on two properties: propagation only READS off-path
// state (sibling views, other anchored relations) while commit only
// WRITES path state — each view map mutating under its own merge lock,
// which also covers its persistent indexes, entry arena and the payloads
// it owns and folds into in place — and the ring addition used to merge
// is associative and commutative, its addends only ever read (see
// ring.Ring). The final views are
// therefore the same as the sequential path's, independent of
// partitioning and of commit interleaving — bit-identical whenever ring
// addition is exact (integer rings, and float rings over integer-valued
// data, which the equivalence tests assert). For inexact float data the
// partition merges group float64 additions differently and may differ
// in the last bits; that is the same rounding nondeterminism the
// sequential path already has across runs, whose summation order
// follows randomized map iteration.
//
// The tree stays externally single-writer: SetParallelism must not be
// called concurrently with maintenance, and Tree remains unsafe for
// concurrent use by multiple callers.
func (t *Tree[V]) SetParallelism(workers, minBatch int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if minBatch <= 0 {
		minBatch = DefaultParallelThreshold
	}
	t.workers = workers
	t.minParallel = minBatch
}

// Parallelism reports the configured worker count and the minimum delta
// size routed to the parallel path (1 and DefaultParallelThreshold when
// never configured).
func (t *Tree[V]) Parallelism() (workers, minBatch int) {
	w, mb := t.workers, t.minParallel
	if w <= 0 {
		w = 1
	}
	if mb <= 0 {
		mb = DefaultParallelThreshold
	}
	return w, mb
}

// propagation is the read-only half of one delta application: the delta
// view computed at every node of the leaf-to-root path, plus the delta
// of the query result. Nothing in it aliases mutable tree state, so
// propagations for disjoint partitions of one delta can be computed
// concurrently and committed in any order.
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

// propagate computes the delta views along path for one delta (or one
// partition of a delta) WITHOUT mutating any tree state. At each node
// the delta joins the materialized views of the node's other children
// and the full contents of its other anchored relations — all off-path
// state — and the node's variable is marginalized, one fused
// relation.Step per node (stepPlan.eval). Because every read is
// off-path and every write is deferred to commit, propagate is safe to
// run concurrently for partitions of the same delta.
//
// recycle selects where the step views go: the sequential caller
// evaluates into the path nodes' and the tree's recycled buffers and
// the tree's steps scratch (and releases them after its commit),
// concurrent partition workers into goroutine-local maps.
func (t *Tree[V]) propagate(src *source[V], delta *relation.Map[V], path []*Node[V], recycle bool) propagation[V] {
	var p propagation[V]
	if recycle {
		p.steps = t.propSteps[:0]
	}
	var arr [4]*relation.Map[V]
	var out *relation.Map[V]
	exclude, d := src.data, delta
	for _, n := range path {
		if recycle {
			out = n.buf.take(n.keys, d.Len())
		}
		d = n.step.eval(t.ring, n.parts(arr[:0], exclude, d), out)
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
	if recycle {
		out = t.resBuf.take(t.result.Schema(), d.Len())
	}
	p.dres = root.resStep.eval(t.ring, parts, out)
	return p
}

// commit merges one propagation into the tree — each step into its path
// node's view under the node's merge lock, the result delta into the
// query result under the tree's result lock — and returns the number of
// tuples merged (t.stats stays single-writer, so the caller adds it).
// Only commit and the source merge write tree state, and Absorb folds
// into payloads a view owns IN PLACE, so the lock also covers the stored
// payloads, besides the view's primary map, built indexes and entry
// arena. The sequential path takes the same locks uncontended; between
// two partition workers' merges of one node the ring addition's
// associativity and commutativity make the interleaving irrelevant to
// the final payloads (exactly whenever the ring is exact — the scope
// documented on SetParallelism).
func (t *Tree[V]) commit(p propagation[V], path []*Node[V]) int {
	n := 0
	for i, d := range p.steps {
		if d.Len() == 0 {
			continue
		}
		nd := path[i]
		nd.mu.Lock()
		nd.view.Absorb(t.ring, d)
		nd.mu.Unlock()
		n += d.Len()
	}
	if p.dres != nil && p.dres.Len() > 0 {
		t.resMu.Lock()
		t.result.Absorb(t.ring, p.dres)
		t.resMu.Unlock()
		n += p.dres.Len()
	}
	return n
}

// applyDeltaParallel is the parallel body of ApplyDelta: partition the
// delta by the hash of the anchor's join key and run one fused
// propagate+commit worker per live partition. Each worker computes its
// partition's delta views (reading only off-path state and writing
// goroutine-local maps — no locks) and immediately merges them into the
// path views under the per-node merge locks (commit), so
// commit parallelizes along with propagate and no barrier serializes
// the two phases: a worker whose partition propagated quickly commits
// while slower partitions are still propagating. The source-relation
// merge overlaps the workers on the calling goroutine — src.data is
// substituted out of every propagation (parts replaces it with the
// partition), so no worker ever reads it.
//
// Exactness is the same associativity argument as before, now applied
// per map instead of per phase: every view ends up as its old contents
// plus the ring sum of the per-partition deltas, and the merge locks
// only determine the ORDER of additions, which associativity and
// commutativity make irrelevant (bit-identical for exact rings; see
// SetParallelism for the inexact-float caveat).
func (t *Tree[V]) applyDeltaParallel(src *source[V], delta *relation.Map[V], path []*Node[V]) int {
	// The join key: the anchor's dependency set restricted to the
	// relation's schema — the attributes through which this delta's
	// effects flow upward. Tuples agreeing on it land in one partition,
	// so partitions touch disjoint key ranges of the anchor view (upper
	// nodes can still collide on group keys, which is what the commit
	// locks are for). An empty key (relation fully marginalized at the
	// anchor) degrades to a full-tuple hash, which is still correct,
	// merely key-oblivious.
	keyIdx := delta.PartitionKey(src.anchor.vn.Keys)
	if len(src.parts) != t.workers {
		src.parts = make([]*relation.Map[V], t.workers)
	}
	parts := delta.PartitionInto(src.parts, keyIdx)
	live := t.liveParts[:0]
	for _, p := range parts {
		if p.Len() > 0 {
			live = append(live, p)
		}
	}
	t.liveParts = live
	if len(live) <= 1 {
		// Hash skew put every tuple in one partition (e.g. a per-key
		// burst): a goroutine handoff would buy zero parallelism, so
		// run the sequential body on the original delta.
		n := t.applyDeltaSequential(src, delta, path)
		for _, p := range parts {
			p.Reset()
		}
		return n
	}
	var tuples atomic.Int64
	var wg sync.WaitGroup
	for _, part := range live {
		wg.Add(1)
		go func(part *relation.Map[V]) {
			defer wg.Done()
			p := t.propagate(src, part, path, false)
			tuples.Add(int64(t.commit(p, path)))
		}(part)
	}
	src.data.MergeAll(t.ring, delta)
	wg.Wait()
	// Clear the recycled partition slots now rather than at next use:
	// they share entries with the just-applied delta and would otherwise
	// pin it in memory while the tree sits idle.
	for _, p := range parts {
		p.Reset()
	}
	return delta.Len() + int(tuples.Load())
}
