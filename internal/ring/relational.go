package ring

import (
	"sort"
	"strings"

	"repro/internal/value"
)

// RelVal is a value of the relational ring: a finite map from tuples
// (encoded with value.Tuple.Encode, hence self-describing) to float64
// coefficients. The empty map is the ring's zero; {() -> 1} is its one.
//
// Addition is union with coefficient summation; multiplication joins the
// two relations by concatenating keys, which matches the paper's use
// where factors always have disjoint schemas (c has schema ∅, s_X has
// schema {X}, products build schema {X,Y}).
//
// A nil RelVal is a valid zero. RelVals are immutable by convention:
// ring operations return fresh maps. They also never hold an explicit
// zero coefficient — constructors and ring operations drop cancelled
// entries — which is what makes Add associative up to representation:
// the empty-side fast paths of Add return the other operand unfiltered,
// so a smuggled-in zero entry would survive one association order and
// cancel in another.
type RelVal map[string]float64

// RelOne returns the multiplicative identity {() -> 1}.
func RelOne() RelVal { return RelVal{"": 1} }

// RelSingle returns the singleton relation {t -> coeff}, or the nil
// zero for coeff 0 (RelVals keep no explicit zero coefficients).
func RelSingle(t value.Tuple, coeff float64) RelVal {
	if coeff == 0 {
		return nil
	}
	return RelVal{t.Encode(): coeff}
}

// Get returns the coefficient of tuple t (0 when absent).
func (r RelVal) Get(t value.Tuple) float64 { return r[t.Encode()] }

// Scalar returns the coefficient of the empty tuple; for 0-dimensional
// values (continuous aggregates) this is the whole payload.
func (r RelVal) Scalar() float64 { return r[""] }

// Len returns the number of tuples with non-zero coefficient.
func (r RelVal) Len() int { return len(r) }

// Clone returns a deep copy of r.
func (r RelVal) Clone() RelVal {
	if r == nil {
		return nil
	}
	out := make(RelVal, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// Equal reports whether two relational values hold the same tuples with
// the same coefficients.
func (r RelVal) Equal(o RelVal) bool {
	if len(r) != len(o) {
		return false
	}
	for k, v := range r {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// String renders the relation with keys decoded and sorted, e.g.
// "{(c1)->1, (c2)->2}". The empty-tuple key renders as "()".
func (r RelVal) String() string {
	if len(r) == 0 {
		return "{}"
	}
	type kv struct {
		t value.Tuple
		c float64
	}
	items := make([]kv, 0, len(r))
	for k, c := range r {
		items = append(items, kv{value.MustDecodeTuple(k), c})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].t.Compare(items[j].t) < 0 })
	var b strings.Builder
	b.WriteByte('{')
	for i, it := range items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.t.String())
		b.WriteString("->")
		b.WriteString(value.Float(it.c).String())
	}
	b.WriteByte('}')
	return b.String()
}

// Relational is the ring over relations: union as +, key-concatenating
// join as ×, the empty relation as 0, {() -> 1} as 1. It implements
// neither Scratch nor FMA: no engine maintains views over it, and the
// tests that do take the pure path.
type Relational struct{}

// Zero returns the empty relation (nil).
func (Relational) Zero() RelVal { return nil }

// One returns {() -> 1}.
func (Relational) One() RelVal { return RelOne() }

// Add returns the union of a and b with summed coefficients; tuples whose
// coefficients cancel are dropped.
func (Relational) Add(a, b RelVal) RelVal {
	if len(a) == 0 {
		return b.Clone()
	}
	if len(b) == 0 {
		return a.Clone()
	}
	out := make(RelVal, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		s := out[k] + v
		if s == 0 {
			delete(out, k)
		} else {
			out[k] = s
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Mul returns the product: every pair of tuples concatenates and their
// coefficients multiply. Since encodings are self-delimiting, key
// concatenation is string concatenation.
func (Relational) Mul(a, b RelVal) RelVal {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make(RelVal, len(a)*len(b))
	for ka, va := range a {
		for kb, vb := range b {
			k := ka + kb
			s := out[k] + va*vb
			if s == 0 {
				delete(out, k)
			} else {
				out[k] = s
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Neg negates every coefficient.
func (Relational) Neg(a RelVal) RelVal {
	if len(a) == 0 {
		return nil
	}
	out := make(RelVal, len(a))
	for k, v := range a {
		out[k] = -v
	}
	return out
}

// IsZero reports whether a is the empty relation.
func (Relational) IsZero(a RelVal) bool { return len(a) == 0 }
