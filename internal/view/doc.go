// Package view implements F-IVM's core contribution: view trees over
// variable orders that maintain batches of ring-valued aggregates over
// project-join queries under inserts and deletes.
//
// A Tree is built from (relations, variable order, ring, lift
// functions). Leaves are the input relations; each variable-order node
// owns a view grouped by its dependency set, defined as the join of its
// children followed by marginalizing the node's variable — multiplying
// each tuple payload by the variable's lift function while summing it
// away. Updates to a relation propagate along the leaf-to-root path
// with delta processing against the materialized sibling views. That is
// the package's one evaluation path: a bulk load (Init, InitWeighted,
// ReadSnapshot) empties the tree in place and applies each loaded
// relation as a delta, smallest first — the paper's definition of a
// database as the empty one plus updates.
//
// An input relation keeps its tuples only when a step probes them (its
// anchor node has a child view or another anchored relation); else its
// anchor view is its only state, and snapshots carry that view.
//
// # Key invariants
//
//   - Views, deltas, and input relations are all the same structure: a
//     relation.Map keyed by a schema with ring payloads. Negative
//     payloads encode deletes; payloads equal to the ring zero are
//     never stored.
//   - Propagating a delta only READS off-path state (the sibling views
//     of each path node, the other anchored relations) and only WRITES
//     path state (the path nodes' views, a stored source, the result). The
//     two sets are disjoint.
//   - Delta propagation is linear in the delta: applying δ1 then δ2
//     leaves exactly the state of applying δ1 ⊎ δ2, because each step
//     is a join (distributes over union) followed by a marginalization
//     (additive), and view merges use the ring's associative and
//     commutative addition.
//
// Every ApplyDelta runs one body: propagate the delta read-only along
// its path, then commit the delta views into the path's views.
//
// A Tree is not safe for concurrent use: one goroutine at a time drives
// maintenance, and nothing inside it starts another. More cores serve
// more shards (internal/cluster), not one tree. DeltaFor is the
// exception — it reads only immutable tree metadata and may run
// concurrently with maintenance, which the serving layer exploits to
// prebuild deltas off the writer thread.
//
// # Maintenance scratch and ownership
//
// The single-writer contract is what lets the tree keep reusable
// scratch across calls (docs/PERF.md has the full story):
//
//   - Each source owns a delta buffer that ApplyUpdates Resets and
//     refills per batch instead of allocating; views that stored one
//     of its payloads hold it flagged shared, so they outlive the
//     buffer's recycling.
//   - The propagation-steps slice and the step outputs it points at
//     (one recycled delta buffer per path node and one for the result,
//     see deltaBuf: filled by the step, absorbed by commit, emptied
//     before ApplyDelta returns, sized by the delta they were made for
//     and replaced when the next one is far from it) are tree-owned and
//     recycled.
//   - Each node carries build-time evaluation plans, one per part a
//     delta can enter at (relation.StepPlan: probe keys, group and lift
//     positions; and its resolved lift), so per-delta evaluation
//     re-derives nothing, and evaluates the delta's as one
//     relation.Step — iterate the delta, probe the other parts, multiply
//     in operand order, lift, group — that never materializes a join.
//   - Every part a delta can be joined against (sibling views, other
//     anchored relations, other roots' views) carries a registered
//     join-key index on exactly the common-key projection the node's
//     plan probes it on; delta propagation joins via
//     relation.Step, touching O(|delta|) state per node
//     instead of scanning full views. Indexes build lazily on first
//     probe and are maintained by the commit-phase merges; the maps
//     live as long as the tree (a bulk load Resets them, which keeps
//     registrations), so New registers once. A load's own deltas are
//     the larger side of every step they meet, so Step indexes each
//     smaller part whose index is unbuilt for that call only.
//   - A view OWNS the payloads it stores: commit (relation.Absorb)
//     folds each delta into them in place, so a batch costs what its
//     delta costs, not what the stored payloads weigh. Every payload
//     that something else may still reference — inserted from a delta
//     or the cached ±1, cloned, or stored unlifted by an aggregation —
//     is flagged in its entry and copy-on-writes instead (the rule is
//     relation's; see its package doc). Result, ResultPayload and
//     Source therefore return LIVE references: read them before the
//     next maintenance call or copy them. Callers of ApplyDelta cede
//     the delta's payloads to the tree: they must not mutate a delta
//     after applying it (recycling its container is fine).
package view
