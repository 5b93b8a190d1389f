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
//     BuildDelta/ApplyBuilt, CloneView, Stats, WriteSnapshot/
//     ReadSnapshot, PublishModel). Four thin
//     instantiations add typed accessors, reached by type assertion:
//     Analysis (generalized COVAR / MI / ridge / Chow-Liu over mixed
//     features), CountEngine and FloatEngine (SUM aggregates parsed
//     from a small SQL subset), and CovarEngine (scalar COVAR over
//     continuous attributes, on the ranged payloads of the paper's
//     Figure 2d).
//
// # Key invariants
//
//   - Views, deltas, and inputs are all keyed relations with ring
//     payloads. A view owns the payloads it stores and maintenance
//     updates them in place, so Payload/Result/Tree().Source hand out
//     live references (read them before the next update, or use
//     ClonePayload/CloneView); everything an engine publishes is a
//     deep copy or a copy-on-write clone that no later update changes.
//   - Result-access convention: Payload/Result never fail (the empty
//     join yields the ring zero); typed accessors that derive
//     structure from the payload (Covar, Sigma, Ridge, MI, a Model's
//     ResultJSON) return a descriptive error on the empty join.
//   - An Engine is single-writer, and maintenance starts no goroutines
//     of its own: more cores serve more shards (internal/cluster). Two
//     deliberate exceptions support the serving layer: BuildDelta
//     reads only immutable tree metadata and may run concurrently with
//     maintenance, and every published Model is an isolated deep copy.
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
//	})
//	an := eng.(*fivm.Analysis)
//	an.Init(initialTuples)
//	an.Apply(updates)          // inserts and deletes
//	sigma, _ := an.Covar()     // feeds ml.RidgeModel
package fivm
