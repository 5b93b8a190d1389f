// Package relation implements keyed relations with ring payloads: the
// storage substrate of F-IVM. A relation maps tuples over a schema to
// payload values from an application ring; views, deltas, and input
// relations are all the same structure. Negative payloads encode
// deletes, so a "delta relation" needs no special type.
//
// # Key invariants
//
//   - Tuples whose payload equals the ring zero are never stored:
//     Merge, MergeAll and Step (Join, Aggregate) all drop entries that
//     cancel, so relations stay compact under delete-heavy streams and
//     two relations holding the same content are structurally equal.
//   - Payloads are shared, never copied, on Clone — sound because every
//     entry that shares one is flagged and copies on write (see the
//     ownership rules below).
//   - A Map is not safe for concurrent mutation; concurrent plain reads
//     (Get, Each) are fine. A join probe is not a plain read: it builds
//     the probed index on first use, so it belongs to the map's writer.
//
// Beyond storage, the package provides the relational algebra the view
// tree is built from and persistent secondary join-key indexes
// (AddIndex). There is one join kernel, Step, over k parts of which one
// is the delta: it iterates the delta, probes every other part in
// operand order, and for every matching combination multiplies the
// payloads in operand order, applies the plan's lift and folds the
// product into the plan's group of the output — the join and the
// aggregation after it in one pass whose intermediate is never built,
// which is how the view tree evaluates a path node. Join (two parts,
// every pair its own group) and Aggregate (one part) are Step under
// other plans. A part is probed through its persistent index when that
// is built or the part is no smaller than the delta — delta-sized steps
// then cost O(|delta|) instead of O(|relation|) — and otherwise indexed
// for the call, which is what a bulk load's relation-sized deltas get.
//
// # Ownership and the allocation-lean hot path
//
// The merge hot path is engineered around four rules, documented here
// because they are the package's load-bearing ownership contract (see
// also docs/PERF.md):
//
//   - A relation OWNS what it stores. Merge, MergeAll and Absorb — the
//     commit step of view maintenance — fold a delta into a stored
//     payload in place through the ring's optional Scratch extension,
//     so a batch costs what its delta costs, not what the stored
//     payloads weigh. A payload that may also be referenced from
//     outside is an alias, and its entry is flagged shared: a payload
//     inserted from the caller (a delta's, a cached ring constant such
//     as ±1, anything given to Set), both sides of a Clone, and both
//     sides of an unlifted Aggregate (input and output hold the same
//     value). Only Absorb, whose argument the caller gives up, takes
//     over what that argument owned. A
//     flagged entry copies on write: its next hit takes one pure ring
//     Add, whose fresh result the map owns from then on. Rings without
//     Scratch (value payloads) always take the pure Add. What the
//     addends point to is never written, zero payloads are never
//     stored (so Add cannot hand an operand back), and results are
//     bit-identical to the pure path (scratch_test.go here, the pure
//     reference trees in view and fivm). Payloads read out of a map
//     (Get, Each, a view's Result) are therefore live: read them
//     before the next merge, or Clone for a stable snapshot.
//   - Entry structs are owned by their map too: Clone and MergeAll
//     allocate fresh ones. That is what lets each map slab-allocate
//     its entries from a per-map arena and recycle them on
//     annihilation and Reset (alloc.go).
//   - Step OWNS its output map while building it —
//     empty on entry, whether freshly allocated or a caller's recycled
//     buffer — and fold only into payloads they created there in this
//     call, in place via Scratch/FMA (the same entry.add the commit
//     path uses): a group's first product is a fresh Mul result, so
//     nothing Step folds into is reachable from an operand. A one-part
//     step writes one thing outside its output: the shared flag of an
//     input entry whose payload it stores unlifted.
//   - Keys encode into reused scratch buffers (Tuple.AppendEncode*);
//     maps are probed with string(buf), which Go compiles without a
//     copy, and the key string plus output tuple only materialize when
//     an entry is actually inserted.
//
// Scratch reuse: Reset clears a relation while keeping its allocated
// capacity (per-engine delta buffers, the view tree's per-node step
// outputs), so steady-state maintenance re-walks warm memory instead
// of reallocating it. Capacity is also what a recycled map costs: Reset
// and iteration are O(table), so an owner sizes what it keeps (NewSized)
// to the work it expects, not to the largest it has seen.
//
// Secondary indexes extend the contract without bending it: postings
// hold the map's own entry pointers, which stay valid however the
// payload behind them is updated; only entry insertion and
// annihilation touch them, on the same single-writer paths that
// mutate the primary map. Indexes build lazily on first
// probe and an index never probed costs nothing. See index.go and
// docs/ARCHITECTURE.md.
package relation
