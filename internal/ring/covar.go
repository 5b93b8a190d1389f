package ring

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Covar is the dense degree-m compound aggregate (c, s, Q) where c is
// the count SUM(1), s is the m-vector of SUM(X_i), and Q is the
// symmetric m×m matrix of SUM(X_i * X_j), stored as its packed upper
// triangle. It is the result type of the covar engine, whose ring is
// RangedCovar: RangedCovar.Widen reads a payload into one, and
// ml.SigmaFromCovar reads it.
//
// A nil *Covar reads as zero.
type Covar struct {
	m int
	C float64
	S []float64 // length m
	Q []float64 // packed upper triangle, length m*(m+1)/2
}

// triLen returns the packed-triangle length for degree m.
func triLen(m int) int { return m * (m + 1) / 2 }

// newCovar returns a zero-valued degree-m Covar whose S and Q share one
// backing array, two allocations instead of three. S is
// capacity-capped so an append could never silently spill into Q.
func newCovar(m int) *Covar {
	buf := make([]float64, m+triLen(m))
	return &Covar{m: m, S: buf[:m:m], Q: buf[m:]}
}

// triIndex returns the packed index of entry (i, j); callers must pass
// i <= j.
func triIndex(m, i, j int) int { return i*m - i*(i-1)/2 + (j - i) }

// Degree returns m.
func (c *Covar) Degree() int { return c.m }

// Clone returns a deep copy of c; cloning nil returns nil.
func (c *Covar) Clone() *Covar {
	if c == nil {
		return nil
	}
	out := newCovar(c.m)
	out.C = c.C
	copy(out.S, c.S)
	copy(out.Q, c.Q)
	return out
}

// Count returns the scalar count aggregate c (0 for the nil zero).
func (c *Covar) Count() float64 {
	if c == nil {
		return 0
	}
	return c.C
}

// Sum returns SUM(X_i) (0 for the nil zero).
func (c *Covar) Sum(i int) float64 {
	if c == nil {
		return 0
	}
	return c.S[i]
}

// Prod returns SUM(X_i * X_j), exploiting symmetry for i > j. It returns
// 0 for the nil zero.
func (c *Covar) Prod(i, j int) float64 {
	if c == nil {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return c.Q[triIndex(c.m, i, j)]
}

// Equal reports element-wise equality, degree included; nil equals
// only nil.
func (c *Covar) Equal(o *Covar) bool {
	switch {
	case c == nil && o == nil:
		return true
	case c == nil || o == nil:
		return false
	case c.m != o.m, c.C != o.C:
		return false
	}
	for i := range c.S {
		if c.S[i] != o.S[i] {
			return false
		}
	}
	for i := range c.Q {
		if c.Q[i] != o.Q[i] {
			return false
		}
	}
	return true
}

// String renders the compound aggregate compactly, e.g.
// "(3, [6 0 0], [14 0 0; 0 0; 0])".
func (c *Covar) String() string {
	if c == nil {
		return "(0)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "(%v, [", value.Float(c.C))
	for i, s := range c.S {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(value.Float(s).String())
	}
	b.WriteString("], [")
	for i := 0; i < c.m; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := i; j < c.m; j++ {
			if j > i {
				b.WriteByte(' ')
			}
			b.WriteString(value.Float(c.Prod(i, j)).String())
		}
	}
	b.WriteString("])")
	return b.String()
}
