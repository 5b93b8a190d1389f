// Package ring implements the application-specific rings at the heart
// of F-IVM. A view tree carries payloads from one ring; swapping the
// ring — and only the ring — retargets the same maintenance machinery
// from counting to linear-regression gradients (COVAR matrices) to the
// count tables behind pairwise mutual information.
//
// The rings provided are those of the paper:
//
//   - Ints / Floats: the ring Z (and its float analogue) of tuple
//     multiplicities. Negative values encode deletes.
//   - Relational: relations as values, with union as + and a
//     schema-concatenating join as ×. The scalar domain of the
//     generalized degree-m ring; no engine runs it as its own ring. Its
//     × is not commutative, so the view and relation tests use it, as
//     the reference ring, to check that products keep operand order.
//   - Covar: not a ring but the dense compound aggregate (c, s, Q) of m
//     continuous attributes, the result type a covar engine hands out
//     and ml.SigmaFromCovar reads. The full-degree ring over it
//     survives only in covar_test.go, as the reference the ranged and
//     relational rings are checked against.
//   - RelCovar: the degree-m matrix ring over relational values, the
//     composition that supports one-hot-encoded categorical attributes
//     and the mutual-information count tables. Stored flat (see "The
//     RelCovar layout" below); Relational and RelVal remain the scalar
//     domain it is defined over and what its Count/Sum/Prod accessors
//     hand out.
//   - RangedCovar: the COVAR ring with ranged payloads, the paper's
//     Figure 2d `RingCofactor<double, idx, cnt>` and the covar engine's
//     ring: each view carries only its own subtree's aggregate indexes
//     (see "Ranged payloads" below).
//   - Matrix: dense matrices, demonstrating a non-commutative ring
//     (matrix chain products) on the same machinery.
//
// # Key invariants
//
//   - The pure operations never modify their arguments: Add, Mul, and
//     Neg return fresh values (or an operand itself, when the other is
//     the zero), so they are safe to call concurrently on shared
//     values. Mutation exists only behind the Scratch/FMA extensions
//     below, on values their caller owns.
//   - Add is associative and commutative, and values carry no hidden
//     representation slack that could distinguish equal sums (e.g.
//     RelVal stores no explicit zero coefficients). The maintenance
//     core merges partial aggregates in whatever grouping is
//     convenient — including the per-shard partials a cluster router
//     merges — and relies on every grouping producing the same value.
//   - The ring zero is never stored in relations: IsZero gates every
//     merge, keeping views compact under cancellation.
//
// merge_test.go pins the first two invariants property-style for every
// ring.
//
// # The RelCovar layout
//
// A RelCovar is one slice of {key uint64, v float64} coefficients,
// sorted by key, with no zero coefficient; nil is its only zero. The
// key packs a 16-bit slot (0 = c, 1+i = s_i, 1+m+tri(i,j) = Q_ij over
// the packed upper triangle) above two 24-bit CatIDs, the ids of the
// encoded category values forming the coefficient's tuple key. A
// continuous attribute contributes no part (id 0) and the parts that
// are present are left-packed, which mirrors string concatenation with
// an empty key: packed keys are equal exactly when the concatenated
// tuple keys of the relational ring are, so the layout changes no
// result — relcovar_ref_test.go keeps the map-per-component formulas
// and checks every operation against them.
//
// CatIDs come from one append-only dictionary, package-level by design
// (catdict.go): payloads meet by key across engines, decoded shard
// partials and references, so equal values must carry equal ids
// process-wide. It interns under an RWMutex — codecs and readers share
// it with the maintenance writer's lifts — grows by one
// string per distinct category value ever lifted or decoded, never
// shrinks or renumbers, and is full at 2^24 values: from then on
// RelCovarCodec.Decode returns an error for an unseen value and a lift
// panics (Lift has no error result). Degrees stop at
// MaxRelCovarDegree, the slot bits' reach.
//
// Operations are merges of sorted runs: Mul scales both operands by the
// other's count and merges them with the sorted s × s cross terms into
// one allocation; AddInto folds in place: it sums the keys already
// present, found by galloping search, merges the new ones in from the
// back into spare capacity grown like append, and drops what cancelled
// in one pass from the first zero; MulAddInto emits Mul's terms into a
// stack buffer and folds them the same way, building no product; Add,
// Neg, Clone and Equal are linear. The coefficients hold no pointers,
// so the garbage collector never scans a payload. RelCovarCodec writes
// the relational ring's wire form (per slot a count, then (tuple key,
// coefficient) pairs), unchanged from the map layout, and on decode
// drops zero coefficients and rejects keys the ring cannot produce.
//
// # Ranged payloads
//
// A RangedCovar covers the contiguous lift-index range [Start,
// Start+N): a lift is degree 1, a product of adjacent ranges covers
// their union, and a scalar (N = 0) multiplies anything. Sums need
// equal ranges and products adjacent ones; a violation is an
// index-assignment bug and panics, which is why the covar engine
// assigns lift indexes in its variable order's post-order, the order
// its products combine subtrees in. Widen reads a payload through a
// permutation as a full Covar. s and Q share one backing array, so a
// payload is two allocations (a scalar one) and every kernel is a pass
// over that array: Mul writes each operand's triangle scaled by the
// other's count plus the one s×s cross block, row by row of the packed
// result; MulAddInto (FMA) adds the same terms in place, each rounded
// to float64 first, so it is bit-identical to the pure composition;
// AddInto, Neg and Clone are single loops. RangedCovarCodec is bound to a degree: a range past it
// is refused on encode and, before anything is allocated, on decode.
//
// # Scratch extensions and ownership
//
// The pure operations allocate: for pointer-shaped payloads every Add
// builds a fresh value, which dominated the maintenance hot path's
// allocation profile — and, when a commit adds a small delta to a large
// stored payload, copies the large one. The optional Scratch and FMA
// interfaces are the sanctioned escape hatch: AddInto folds a value
// into an accumulator in place, MulAddInto fuses `acc += a × b`. The
// ownership rule is strict — the accumulator must be EXCLUSIVELY OWNED
// by the caller, the other operands are only read, and the result must
// be bit-identical to the pure composition. Two kinds of callers own an
// accumulator: relation.Step owns the payloads of the output it is
// building (created by Own, Mul, Neg, One, a lift, or a
// previous in-place call), and a relation.Map owns the payloads it
// stores unless their entry is flagged shared — that is how a view
// commits a delta in place (relation.Map.MergeAll). Rings implementing
// Scratch additionally guarantee that Add returns a fresh value when
// both operands are non-zero, so one pure Add turns a shared payload
// into an owned one (copy-on-write). Ownership covers a payload's
// backing array up to its capacity, not only its length: RelCovar's
// AddInto and MulAddInto grow into the spare capacity, so no two values
// may share an array — every constructor (Clone, One, Mul via wrap,
// Neg, the lifts, decode) allocates its own. scratch_test.go pins the
// equivalence contract for every implementing ring, and
// relcovar_ref_test.go's fold chain the ownership of RelCovar's. See
// docs/PERF.md for the full ownership story.
package ring
