// Package fivm is the public API of the F-IVM reproduction: real-time
// analytics over fast-evolving relational data. Its central claim —
// the paper's — is that ONE view-maintenance mechanism serves many
// workloads by swapping the payload ring and nothing else. The API is
// shaped accordingly:
//
//   - Open(Config) is the only way to build an engine. It compiles
//     either a SQL query or a declarative relations+features config
//     into the right one through a single kinds table (which Config
//     fields each kind consumes, and its builder), rejecting any set
//     field the kind does not consume and bare Relations, which name
//     no workload. Kinds lists the table for command-line help.
//   - AnyEngine is the one kind-independent interface Open returns and
//     the serving layer hosts. Updates enter through Apply (tuple-level
//     updates) or BuildDelta + ApplyBuilt (a prebuilt delta).
//   - Engine[V] is the generic core behind it: a view tree over one
//     ring plus the shared lifecycle (Init, InitWeighted, Apply,
//     BuildDelta/ApplyBuilt, ClonePayload, Stats, WriteSnapshot/
//     ReadSnapshot, PublishModel). Open returns it for every kind —
//     *Engine[int64] and *Engine[float64] (SUM aggregates parsed from
//     a small SQL subset), *Engine[*ring.RangedCovar] (scalar COVAR
//     over continuous attributes, on the ranged payloads of the
//     paper's Figure 2d) and *Engine[*ring.RelCovar] (generalized
//     COVAR / MI / ridge / Chow-Liu over mixed features). A kind's
//     builder supplies only the ring and the closures that publish its
//     Model and admit its updates; the analysis kind's closures also
//     hold the fit state its models share, which OnFit observes. Each
//     kind is read through the Model it publishes.
//
// # Key invariants
//
//   - Views, deltas, and inputs are all keyed relations with ring
//     payloads. A view owns the payloads it stores and maintenance
//     updates them in place, so Payload/Result/Tree().Source hand out
//     live references (read them before the next update, or use
//     ClonePayload/Result().Clone()); everything an engine publishes is a
//     deep copy or a copy-on-write clone that no later update changes.
//   - Result-access convention: Payload/Result never fail (the empty
//     join yields the ring zero); model readers that derive structure
//     from the payload (AnalysisModel's Covar and Fit, a Model's
//     ResultJSON) return a descriptive error on the empty join.
//   - An Engine is single-writer, and maintenance starts no goroutines
//     of its own: more cores serve more shards (internal/cluster). Two
//     deliberate exceptions support the serving layer: BuildDelta and
//     CheckUpdate may run concurrently with maintenance (CheckUpdate
//     interns an analysis update's categories into the category
//     dictionary, refusing them with ErrCategoriesFull once it is
//     full), and every published Model is an isolated deep copy.
//   - Publishing is a copy: PublishModel clones the payload (analysis,
//     covar) or the result relation (count, float), and whatever a
//     reader derives from it runs later, at most once per model, on
//     the reader's goroutine. An AnalysisModel's ridge fit — Σ and the
//     conjugate gradient — is such a derivation: its first caller of
//     Fit (or ResultJSON, Predict, Covar) runs it and concurrent
//     callers wait. Σ is built on the engine's newest Σ's columns and
//     sparsity structure while they still hold, and the fit starts from
//     zero, so it depends on the model's payload alone. A serving layer
//     runs it off its writer (the fitter goroutine of internal/serve).
//   - Maintenance scratch lives on the engine (its view tree): delta
//     buffers, propagation steps, and cached ±1
//     payloads are recycled across Apply/ApplyBuilt calls under the
//     single-writer contract, which is why the steady-state hot path
//     allocates little (pinned by alloc_test.go; see docs/PERF.md). A
//     delta passed to ApplyBuilt is ceded to the engine — callers
//     must not mutate it afterwards.
//   - Per-update maintenance is O(|delta|), not O(database): delta
//     propagation probes persistent join-key indexes on the sibling
//     views and co-anchored relations instead of scanning them, so
//     single-tuple ApplyBuilt latency stays ~flat as base relations
//     grow (TestSingleTupleLatencyFlat; docs/ARCHITECTURE.md has
//     the index design). Indexes are engine-internal: they build
//     lazily on first use and registration survives Init and
//     ReadSnapshot, with no API surface to manage.
//   - Bulk load is that same maintenance path: Init, InitWeighted and
//     ReadSnapshot empty the engine and apply each relation as one
//     delta. Stats counts updates, so it is unchanged by a load.
//   - An engine keeps only state some update reads: a relation that is
//     its anchor node's only operand (every Retailer and Favorita
//     relation) keeps no tuple map, and Tree().Source reports false for
//     it. Its anchor view is its state, and snapshots carry that view.
//
// A minimal session:
//
//	eng, _ := fivm.Open(fivm.Config{
//	    Relations: []fivm.RelationSpec{{Name: "R", Attrs: []string{"A", "B"}}, ...},
//	    Features:  []fivm.FeatureSpec{{Attr: "B"}, {Attr: "C", Categorical: true}},
//	    Label:     "B",
//	})
//	eng.Init(initialTuples)
//	eng.Apply(updates)         // inserts and deletes
//	m := eng.PublishModel(nil).(*fivm.AnalysisModel)
//	model, sigma, _ := m.Fit() // ridge predicting B, and the Σ it fits
package fivm
