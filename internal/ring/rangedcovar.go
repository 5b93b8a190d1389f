package ring

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// RangedCovar is the payload of the ranged degree-m matrix ring: a
// compound aggregate (c, s, Q) covering only the contiguous index range
// [Start, Start+N) of the query's aggregate attributes. This is the
// `RingCofactor<double, idx, cnt>` of the paper's Figure 2d: a view deep
// in the tree carries aggregates only for the attributes of its own
// subtree, so leaf payloads are tiny and grow as they travel toward the
// root — a large constant-factor win over carrying the full degree
// everywhere.
//
// Products require the operand ranges to be adjacent (the covar engine
// guarantees this by assigning lift indexes in the view tree's
// structural order); sums require identical ranges. Violations panic:
// they are index-assignment bugs, not data errors.
//
// A nil *RangedCovar is the ring's zero. One() covers the empty range
// with scalar 1. Start and N are read-only: every ring operation sizes
// the payload's backing array from them.
type RangedCovar struct {
	Start int
	N     int
	C     float64
	// v is the payload's one backing array: s (N entries), then the
	// packed upper triangle of Q (N(N+1)/2 entries). nil when N is 0.
	v []float64
}

// newRanged returns a zero payload over [start, start+n) whose s and Q
// share one backing array: payload construction is the maintenance hot
// path's dominant allocator, and one array turns three allocations
// (struct, s, Q) into two — one for a scalar.
func newRanged(start, n int) *RangedCovar {
	c := &RangedCovar{Start: start, N: n}
	if n > 0 {
		c.v = make([]float64, n+triLen(n))
	}
	return c
}

// Clone returns a deep copy of c; cloning nil (the ring zero) returns
// nil.
func (c *RangedCovar) Clone() *RangedCovar {
	if c == nil {
		return nil
	}
	out := newRanged(c.Start, c.N)
	out.C = c.C
	copy(out.v, c.v)
	return out
}

// Count returns the scalar count component (0 for nil).
func (c *RangedCovar) Count() float64 {
	if c == nil {
		return 0
	}
	return c.C
}

// Sum returns SUM(X_g) for the global aggregate index g, which must lie
// inside the payload's range; out-of-range reads return 0 (those
// aggregates are simply not carried here).
func (c *RangedCovar) Sum(g int) float64 {
	if c == nil || g < c.Start || g >= c.Start+c.N {
		return 0
	}
	return c.v[g-c.Start]
}

// Prod returns SUM(X_g * X_h) for global indexes g, h within the range
// (0 outside).
func (c *RangedCovar) Prod(g, h int) float64 {
	if c == nil {
		return 0
	}
	if g > h {
		g, h = h, g
	}
	if g < c.Start || h >= c.Start+c.N {
		return 0
	}
	return c.v[c.N+triIndex(c.N, g-c.Start, h-c.Start)]
}

// Equal reports element-wise equality including the range.
func (c *RangedCovar) Equal(o *RangedCovar) bool {
	cz, oz := c == nil, o == nil
	if cz || oz {
		return cz == oz
	}
	if c.Start != o.Start || c.N != o.N || c.C != o.C {
		return false
	}
	for i, x := range c.v {
		if x != o.v[i] {
			return false
		}
	}
	return true
}

// String renders the payload with its range, e.g. "<2,3>(c, s, Q)".
func (c *RangedCovar) String() string {
	if c == nil {
		return "(0)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<%d,%d>(%v, [", c.Start, c.N, value.Float(c.C))
	for i, s := range c.v[:c.N] {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(value.Float(s).String())
	}
	b.WriteString("], [")
	k := c.N
	for i := 0; i < c.N; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := i; j < c.N; j++ {
			if j > i {
				b.WriteByte(' ')
			}
			b.WriteString(value.Float(c.v[k]).String())
			k++
		}
	}
	b.WriteString("])")
	return b.String()
}

// Widen returns the payload as a full Covar of degree len(perm) whose
// attribute i is this payload's global index perm[i] — how the covar
// engine hands out its root payload, maintained in the view tree's
// structural order, in its caller's attribute order. Indexes outside
// the payload's range read 0. It is one pass with a Clone's two
// allocations; widening nil (the ring zero) returns nil.
func (c *RangedCovar) Widen(perm []int) *Covar {
	if c == nil {
		return nil
	}
	out := newCovar(len(perm))
	out.C = c.C
	k := 0
	for i, g := range perm {
		out.S[i] = c.Sum(g)
		for _, h := range perm[i:] {
			out.Q[k] = c.Prod(g, h)
			k++
		}
	}
	return out
}

// Narrow inverts Widen for a payload over [0, len(perm)), perm being a
// permutation of it: global index perm[i] is c's attribute i.
func (c *Covar) Narrow(perm []int) *RangedCovar {
	if c == nil {
		return nil
	}
	out := newRanged(0, len(perm))
	out.C = c.C
	k := 0
	for i, g := range perm {
		out.v[g] = c.S[i]
		for _, h := range perm[i:] {
			out.v[out.N+triIndex(out.N, min(g, h), max(g, h))] = c.Q[k]
			k++
		}
	}
	return out
}

// RangedCovarRing is the ranged degree-m matrix ring. The ring itself is
// degree-free: each payload carries its own range.
type RangedCovarRing struct{}

// Zero returns nil.
func (RangedCovarRing) Zero() *RangedCovar { return nil }

// One returns the scalar 1 over the empty range.
func (RangedCovarRing) One() *RangedCovar { return &RangedCovar{C: 1} }

// sameRange panics unless a covers [start, start+n): adding payloads of
// different ranges is an index-assignment bug, never a data error.
func sameRange(a *RangedCovar, start, n int) {
	if a.Start != start || a.N != n {
		panic(fmt.Sprintf("ring: adding ranged payloads [%d,%d) and [%d,%d)",
			a.Start, a.Start+a.N, start, start+n))
	}
}

// Add returns the element-wise sum; the ranges must match.
func (RangedCovarRing) Add(a, b *RangedCovar) *RangedCovar {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	sameRange(a, b.Start, b.N)
	out := newRanged(a.Start, a.N)
	out.C = a.C + b.C
	for i, x := range a.v {
		out.v[i] = x + b.v[i]
	}
	return out
}

// adjacent orders the operands of a product by range — lo's range ends
// where hi's begins, either may be empty — and returns the range of the
// product and the scale of each operand's own blocks, the other's
// count. It panics on ranges that do not meet.
func adjacent(a, b *RangedCovar) (lo, hi *RangedCovar, start int, loScale, hiScale float64) {
	lo, hi, loScale, hiScale = a, b, b.C, a.C
	if b.N > 0 && (a.N == 0 || b.Start < a.Start) {
		lo, hi, loScale, hiScale = b, a, a.C, b.C
	}
	if lo.N > 0 && hi.N > 0 && lo.Start+lo.N != hi.Start {
		panic(fmt.Sprintf("ring: multiplying non-adjacent ranges [%d,%d) and [%d,%d)",
			lo.Start, lo.Start+lo.N, hi.Start, hi.Start+hi.N))
	}
	start = lo.Start
	if lo.N == 0 {
		start = hi.Start
	}
	return lo, hi, start, loScale, hiScale
}

// Mul returns the product over the union range. The operand ranges must
// be adjacent (either may be empty); the result's blocks are
//
//	c = ca·cb
//	s = [cb·sa | ca·sb]            (in index order)
//	Q = [cb·Qa | sa sbᵀ | ca·Qb]   (lo×lo, lo×hi, hi×hi blocks)
//
// written in one pass over the packed result: row i < |lo| of Q is lo's
// row i scaled, then s_lo[i]·s_hi; the rows below are hi's triangle
// scaled, contiguous.
func (RangedCovarRing) Mul(a, b *RangedCovar) *RangedCovar {
	if a == nil || b == nil {
		return nil
	}
	lo, hi, start, loScale, hiScale := adjacent(a, b)
	n := lo.N
	out := newRanged(start, n+hi.N)
	out.C = a.C * b.C
	s, q := out.v[:out.N], out.v[out.N:]
	ls, lq := lo.v[:n], lo.v[n:]
	hs, hq := hi.v[:hi.N], hi.v[hi.N:]
	for i, x := range ls {
		s[i] = loScale * x
	}
	for j, x := range hs {
		s[n+j] = hiScale * x
	}
	k, p := 0, 0
	for i, x := range ls {
		for _, y := range lq[p : p+n-i] {
			q[k] = loScale * y
			k++
		}
		p += n - i
		for _, y := range hs {
			q[k] = x * y
			k++
		}
	}
	for _, y := range hq {
		q[k] = hiScale * y
		k++
	}
	return out
}

// Neg returns the element-wise negation.
func (RangedCovarRing) Neg(a *RangedCovar) *RangedCovar {
	if a == nil {
		return nil
	}
	out := newRanged(a.Start, a.N)
	out.C = -a.C
	for i, x := range a.v {
		out.v[i] = -x
	}
	return out
}

// IsZero reports whether a is nil or element-wise zero.
func (RangedCovarRing) IsZero(a *RangedCovar) bool {
	if a == nil {
		return true
	}
	if a.C != 0 {
		return false
	}
	for _, x := range a.v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Lift returns g_X for the attribute at global aggregate index idx:
// a single-index payload (1, [x], [x²]).
func (RangedCovarRing) Lift(idx int) Lift[*RangedCovar] {
	if idx < 0 {
		panic("ring: negative lift index")
	}
	return func(v value.Value) *RangedCovar {
		x := v.AsFloat()
		c := newRanged(idx, 1)
		c.C = 1
		c.v[0], c.v[1] = x, x*x
		return c
	}
}
