package fivm

import (
	"fmt"
	"io"

	"repro/internal/m3"
	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
)

// Kind names an engine instantiation — which ring the shared maintenance
// machinery runs over.
type Kind string

// The engine kinds Open can build.
const (
	KindAnalysis Kind = "analysis" // generalized COVAR / MI over mixed features
	KindCount    Kind = "count"    // SUM(1) over the Z ring
	KindFloat    Kind = "float"    // one SUM aggregate over the float ring
	KindCovar    Kind = "covar"    // scalar COVAR over all-continuous attributes, ranged payloads
	KindJoin     Kind = "join"     // the join result itself, via the relational ring
)

// Delta is an opaque prebuilt delta relation flowing between BuildDelta
// and ApplyBuilt. Concretely it is the engine's *relation.Map[V] — so a
// caller holding an Engine[V] may also hand ApplyBuilt a relation it
// weighted itself; the interface lets a ring-agnostic serving layer
// carry it without knowing V. Len reports the number of distinct delta
// tuples.
type Delta interface{ Len() int }

// Model is an immutable view of an engine's maintained result, published
// by PublishModel for lock-free concurrent readers. Implementations are
// deep copies: nothing the engine does after publishing can change them.
//
// Concrete models are AnalysisModel (ridge/COVAR/MI), TableModel
// (count, float-SUM, and join results), and CovarModel (scalar COVAR).
type Model interface {
	// Kind identifies the engine kind that published the model.
	Kind() Kind
	// Count is a scalar summary of the maintained result: the join
	// cardinality where the ring tracks one, otherwise the grand total
	// of the maintained aggregate (see each model's documentation).
	Count() float64
	// ResultJSON renders the model for machine consumption (the serving
	// layer's GET /v1/model). It returns an error when there is no
	// renderable result yet — e.g. ridge fitting failed or the join is
	// empty for a matrix-valued result.
	ResultJSON() (any, error)
	// Predict evaluates the model's predictor on one feature vector.
	// Engines that publish no predictive model return an error.
	Predict(x map[string]value.Value) (float64, error)
}

// Engine is the generic core every F-IVM workload shares: a view tree
// over one ring, plus the lifecycle around it — bulk load, incremental
// maintenance, delta prebuilding, deep-cloned reads, snapshot
// persistence, and model publishing. Open builds it through one of five
// thin instantiations (Analysis, CountEngine, FloatEngine, CovarEngine,
// JoinEngine) that add ring-specific typed accessors.
//
// Result-access convention (uniform across all engines): Payload and
// Result never fail — an empty join yields the ring's zero (nil for
// pointer-shaped rings) and an empty result relation. Typed accessors
// that must interpret the payload into derived structure (Covar, Sigma,
// Ridge, MI, a Model's ResultJSON) return a descriptive error on the
// empty join instead of fabricating zeros; plain enumerations (Tuples)
// return empty collections.
//
// An Engine is not safe for concurrent use, with two deliberate
// exceptions that the serving layer builds on: BuildDelta only reads
// immutable tree metadata and may run concurrently with maintenance,
// and every published Model is an isolated deep copy.
type Engine[V any] struct {
	tree  *view.Tree[V]
	kind  Kind
	codec ring.Codec[V]
	// resultCodec reads and writes partials: result payloads, which a
	// codec may check differently from the source payloads of a
	// snapshot. nil means codec.
	resultCodec ring.Codec[V]
	// clone deep-copies one payload for CloneView/ClonePayload.
	clone func(V) V
	// info names the ring for the M3/ViewTree renderings.
	info    m3.RingInfo
	publish func(prev Model) Model
	// merged is the last model MergePartials published, the warm start
	// of the next merged publish.
	merged Model
}

// newEngine completes e's defaults: a nil resultCodec is codec, and a
// nil clone means payloads are value types copied by assignment.
func newEngine[V any](e Engine[V]) *Engine[V] {
	if e.resultCodec == nil {
		e.resultCodec = e.codec
	}
	if e.clone == nil {
		e.clone = func(v V) V { return v }
	}
	return &e
}

// Kind identifies the engine instantiation.
func (e *Engine[V]) Kind() Kind { return e.kind }

// Tree exposes the underlying view tree for advanced inspection.
func (e *Engine[V]) Tree() *view.Tree[V] { return e.tree }

// Init bulk-loads the initial database (payload One per tuple,
// duplicates accumulate): previous contents are discarded and each
// relation is applied as one delta against the empty tree.
func (e *Engine[V]) Init(data map[string][]value.Tuple) error { return e.tree.Init(data) }

// InitWeighted bulk-loads relations whose tuples carry explicit ring
// payloads — how non-counting interpretations load data (e.g. matrix
// entries as payloads of index tuples).
func (e *Engine[V]) InitWeighted(data map[string]*relation.Map[V]) error {
	return e.tree.InitWeighted(data)
}

// Apply maintains the views under a batch of tuple-level updates
// (Mult > 0 inserts, < 0 deletes).
func (e *Engine[V]) Apply(ups []view.Update) error { return e.tree.ApplyUpdates(ups) }

// BuildDelta builds a delta relation for rel from tuple-level updates,
// behind the type-erased Delta for ring-agnostic callers like the
// serving layer. It only reads immutable tree metadata, so an ingestion
// layer may prepare batch deltas off the maintenance thread and apply
// them with ApplyBuilt. An update for another relation or of the wrong
// arity fails the whole call.
func (e *Engine[V]) BuildDelta(rel string, ups []view.Update) (Delta, error) {
	return e.tree.DeltaFor(rel, ups)
}

// ApplyBuilt maintains the views under a prebuilt delta relation — one
// from BuildDelta of the same engine configuration, or a
// *relation.Map[V] over rel's schema — in time proportional to the
// delta: propagation probes the view tree's persistent join-key indexes
// rather than scanning sibling views (see docs/ARCHITECTURE.md).
func (e *Engine[V]) ApplyBuilt(rel string, d Delta) error {
	m, ok := d.(*relation.Map[V])
	if !ok {
		return fmt.Errorf("fivm: delta type %T does not match the engine's payload type", d)
	}
	return e.tree.ApplyDelta(rel, m)
}

// Payload returns the maintained compound aggregate of a query without
// group-by. It never fails: the empty join yields the ring's zero (nil
// for pointer-shaped rings) — see the Engine doc for the result-access
// convention. The value is a live reference into engine state that the
// next maintenance call may update in place; use ClonePayload to keep
// one across updates.
func (e *Engine[V]) Payload() V { return e.tree.ResultPayload() }

// Result returns the maintained result relation, keyed by the query's
// free variables. Callers must not mutate it, and maintenance updates
// its payloads in place; use CloneView for an isolated copy.
func (e *Engine[V]) Result() *relation.Map[V] { return e.tree.Result() }

// ClonePayload returns a deep copy of the maintained compound aggregate,
// sharing nothing with the engine — a snapshot publisher can hand it to
// concurrent readers while the engine keeps applying deltas.
func (e *Engine[V]) ClonePayload() V { return e.clone(e.tree.ResultPayload()) }

// CloneView returns a deep copy of the maintained result relation with
// every payload cloned. Like ClonePayload it shares nothing with the
// engine.
func (e *Engine[V]) CloneView() *relation.Map[V] {
	res := e.tree.Result()
	out := relation.New[V](res.Schema())
	res.Each(func(t value.Tuple, p V) { out.Set(t, e.clone(p)) })
	return out
}

// RelationNames returns the input relation names, sorted.
func (e *Engine[V]) RelationNames() []string { return e.tree.RelationNames() }

// Arity returns the attribute count of input relation rel.
func (e *Engine[V]) Arity(rel string) (int, bool) {
	src, ok := e.tree.Source(rel)
	if !ok {
		return 0, false
	}
	return src.Schema().Len(), true
}

// Stats exposes maintenance counters.
func (e *Engine[V]) Stats() view.Stats { return e.tree.Stats() }

// ViewTree renders the maintained view tree.
func (e *Engine[V]) ViewTree() string { return m3.Render(e.tree, e.info).TreeDrawing }

// M3 renders the per-view M3 maintenance code.
func (e *Engine[V]) M3() string { return m3.Render(e.tree, e.info).String() }

// WriteSnapshot persists the engine's input relations (views are derived
// state, recomputed on restore). The snapshot is self-contained binary,
// tagged with the payload codec; pair it with an engine built from the
// same configuration.
func (e *Engine[V]) WriteSnapshot(w io.Writer) error {
	return e.tree.WriteSnapshot(w, e.codec)
}

// ReadSnapshot loads input relations from a snapshot written by
// WriteSnapshot, as one delta per relation like Init. The receiving
// engine must have the same relations, lifts, and variable order as the
// writer; snapshots from a different engine kind are rejected by the
// codec tag.
func (e *Engine[V]) ReadSnapshot(r io.Reader) error {
	return e.tree.ReadSnapshot(r, e.codec)
}

// WritePartial serializes the engine's maintained result relation — its
// partial aggregate of the global query when the engine owns one shard
// of the anchor relation — for cross-shard merging (see MergePartials).
func (e *Engine[V]) WritePartial(w io.Writer) error {
	return e.tree.WritePartial(w, e.resultCodec)
}

// MergePartials ring-merges per-shard partial results (each written by
// WritePartial on an engine of the same configuration) and publishes a
// Model of the merged relation. The merge is exact by associativity and
// commutativity of ring addition: shards own disjoint key-ranges of the
// anchor relation, so their partial aggregates sum to the single-engine
// result (bit-identically for exact rings). The engine's own maintained
// state is untouched — the merged relation is swapped in only for the
// duration of the publish — so a data-less "merger" engine built from
// the cluster's configuration can serve merged reads repeatedly, each
// publish warm-starting from the previous merged model (what a worker's
// own publishes do from theirs). Not safe concurrently with maintenance
// or other MergePartials calls.
func (e *Engine[V]) MergePartials(parts []io.Reader) (Model, error) {
	merged := relation.New[V](e.tree.Result().Schema())
	for i, p := range parts {
		m, err := e.tree.ReadPartial(p, e.resultCodec)
		if err != nil {
			return nil, fmt.Errorf("fivm: partial %d: %w", i, err)
		}
		merged.MergeAll(e.tree.Ring(), m)
	}
	old := e.tree.SwapResult(merged)
	defer e.tree.SwapResult(old)
	e.merged = e.PublishModel(e.merged)
	return e.merged, nil
}

// PartitionKey returns the attribute positions a cluster shard map
// routes relation rel's updates by — rel's join key, so tuples that
// join the same way land on one shard (owner =
// cluster.HashTuple(tuple, keyIdx, nil) % shards). ok is false when rel
// is not an input relation.
func (e *Engine[V]) PartitionKey(rel string) ([]int, bool) {
	return e.tree.PartitionKey(rel)
}

// PublishModel builds an immutable Model of the current result, warm-
// starting from prev (the previously published model, nil on the first
// publish) where the engine supports it. It reads live engine state, so
// a serving layer must call it from its single writer.
func (e *Engine[V]) PublishModel(prev Model) Model { return e.publish(prev) }

// tableModel snapshots the result relation into a TableModel. The
// publish-time cost is one shallow clone (relation.Map.Clone flags the
// shared payloads copy-on-write, so that is a full snapshot);
// converting with toFloat, sorting, and decoding keys is deferred to
// the first read of the model.
func tableModel[V any](e *Engine[V], toFloat func(V) float64) *TableModel {
	frozen := e.tree.Result().Clone()
	return &TableModel{
		EngineKind: e.kind,
		Attrs:      frozen.Schema().Attrs(),
		build: func() ([]TableRow, float64) {
			rows := make([]TableRow, 0, frozen.Len())
			var total float64
			frozen.EachSorted(func(t value.Tuple, p V) {
				v := toFloat(p)
				rows = append(rows, TableRow{Key: jsonTuple(t), Value: v})
				total += v
			})
			return rows, total
		},
	}
}
