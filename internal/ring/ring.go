package ring

import "repro/internal/value"

// Ring defines sum and product over payload values of type V, with the
// additive inverse needed to encode deletes. Add, Mul, and Neg never
// modify their arguments: they return fresh values (or an operand
// itself when the other is the zero), so they are safe to call
// concurrently on shared values; in-place accumulation lives behind
// the optional Scratch extension. Add must additionally be associative
// and commutative — the maintenance core merges partial aggregates in
// arbitrary groupings, including a cluster router's merge of per-shard
// partials.
type Ring[V any] interface {
	// Zero returns the additive identity.
	Zero() V
	// One returns the multiplicative identity.
	One() V
	// Add returns a + b.
	Add(a, b V) V
	// Mul returns a * b.
	Mul(a, b V) V
	// Neg returns the additive inverse -a, used to encode deletes.
	Neg(a V) V
	// IsZero reports whether a equals the additive identity; relations
	// drop zero payloads to stay compact.
	IsZero(a V) bool
}

// Lift maps an attribute value into a ring element. Lift functions are
// the paper's g_X: they are applied when their attribute is marginalized
// in the view tree. dst is a value the caller exclusively owns and gives
// up, or the ring zero: a lift may write its result into dst's storage
// and return it (RangedCovar's does, so a relation lifts into a slot of
// its slab — see Slab), and the others ignore it.
type Lift[V any] func(dst V, v value.Value) V

// Ints is the ring Z of tuple multiplicities over int64.
type Ints struct{}

// Zero returns 0.
func (Ints) Zero() int64 { return 0 }

// One returns 1.
func (Ints) One() int64 { return 1 }

// Add returns a + b.
func (Ints) Add(a, b int64) int64 { return a + b }

// Mul returns a * b.
func (Ints) Mul(a, b int64) int64 { return a * b }

// Neg returns -a.
func (Ints) Neg(a int64) int64 { return -a }

// IsZero reports a == 0.
func (Ints) IsZero(a int64) bool { return a == 0 }

// CountLift is the lift g_X(x) = 1 in Z, used by plain COUNT aggregates.
func CountLift(int64, value.Value) int64 { return 1 }

// Floats is the ring of float64 scalars; SUM(expr) over numeric
// expressions uses it.
type Floats struct{}

// Zero returns 0.
func (Floats) Zero() float64 { return 0 }

// One returns 1.
func (Floats) One() float64 { return 1 }

// Add returns a + b.
func (Floats) Add(a, b float64) float64 { return a + b }

// Mul returns a * b.
func (Floats) Mul(a, b float64) float64 { return a * b }

// Neg returns -a.
func (Floats) Neg(a float64) float64 { return -a }

// IsZero reports a == 0. Exact comparison is intentional: payloads reach
// zero only through exact cancellation of previously added terms, which
// holds for the integer-valued data produced by deletes of prior inserts.
func (Floats) IsZero(a float64) bool { return a == 0 }

// IdentityLift lifts a numeric attribute value to itself in Floats:
// g_X(x) = x, the lift of SUM(X).
func IdentityLift(_ float64, v value.Value) float64 { return v.AsFloat() }

// SquareLift lifts x to x*x, the lift of SUM(X*X).
func SquareLift(_ float64, v value.Value) float64 {
	f := v.AsFloat()
	return f * f
}
