package ring

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// CovarRing is the full-degree matrix ring over float64 scalars: every
// payload carries all m attributes, a RangedCovar over [0, m). No engine
// runs it; it is the reference the ranged and relational rings are
// checked against, so its operations are its own, never
// RangedCovarRing's.
type CovarRing struct{ m int }

// sums and tri are a full-range payload's s vector and packed Q
// triangle.
func sums(c *RangedCovar) []float64 { return c.v[:c.N] }
func tri(c *RangedCovar) []float64  { return c.v[c.N:] }

// NewCovarRing returns the degree-m matrix ring. It panics for m <= 0.
func NewCovarRing(m int) CovarRing {
	if m <= 0 {
		panic("ring: CovarRing degree must be positive")
	}
	return CovarRing{m: m}
}

// Zero returns nil, the additive identity.
func (r CovarRing) Zero() *RangedCovar { return nil }

// One returns (1, 0, 0), the multiplicative identity.
func (r CovarRing) One() *RangedCovar {
	out := newRanged(0, r.m)
	out.C = 1
	return out
}

// Add returns the element-wise sum. Either argument may be nil.
func (r CovarRing) Add(a, b *RangedCovar) *RangedCovar {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := newRanged(0, r.m)
	out.C = a.C + b.C
	os, as, bs := sums(out), sums(a), sums(b)
	for i := range os {
		os[i] = as[i] + bs[i]
	}
	oq, aq, bq := tri(out), tri(a), tri(b)
	for i := range oq {
		oq[i] = aq[i] + bq[i]
	}
	return out
}

// Mul returns the degree-m matrix ring product:
//
//	c = ca*cb
//	s = cb*sa + ca*sb
//	Q = cb*Qa + ca*Qb + sa sbᵀ + sb saᵀ
func (r CovarRing) Mul(a, b *RangedCovar) *RangedCovar {
	if a == nil || b == nil {
		return nil
	}
	m := r.m
	out := newRanged(0, m)
	out.C = a.C * b.C
	os, as, bs := sums(out), sums(a), sums(b)
	oq, aq, bq := tri(out), tri(a), tri(b)
	for i := 0; i < m; i++ {
		os[i] = b.C*as[i] + a.C*bs[i]
	}
	k := 0
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			oq[k] = b.C*aq[k] + a.C*bq[k] + as[i]*bs[j] + bs[i]*as[j]
			k++
		}
	}
	return out
}

// Neg returns the element-wise negation.
func (r CovarRing) Neg(a *RangedCovar) *RangedCovar {
	if a == nil {
		return nil
	}
	out := newRanged(0, r.m)
	out.C = -a.C
	os, as := sums(out), sums(a)
	for i := range os {
		os[i] = -as[i]
	}
	oq, aq := tri(out), tri(a)
	for i := range oq {
		oq[i] = -aq[i]
	}
	return out
}

// IsZero reports whether a is nil or element-wise zero.
func (r CovarRing) IsZero(a *RangedCovar) bool {
	if a == nil {
		return true
	}
	if a.C != 0 {
		return false
	}
	for _, v := range sums(a) {
		if v != 0 {
			return false
		}
	}
	for _, v := range tri(a) {
		if v != 0 {
			return false
		}
	}
	return true
}

// Lift returns the lift g_X for the continuous attribute at index idx:
// g_X(x) = (1, s, Q) with s_idx = x and Q_idx,idx = x².
func (r CovarRing) Lift(idx int) Lift[*RangedCovar] {
	if idx < 0 || idx >= r.m {
		panic(fmt.Sprintf("ring: lift index %d out of range for degree %d", idx, r.m))
	}
	qi := triIndex(r.m, idx, idx)
	return func(_ *RangedCovar, v value.Value) *RangedCovar {
		x := v.AsFloat()
		c := r.One()
		sums(c)[idx] = x
		tri(c)[qi] = x * x
		return c
	}
}

// randCovar draws a full-range degree-m payload with small integer entries so all
// arithmetic is exact.
func randCovar(m int) func(*rand.Rand) *RangedCovar {
	r := NewCovarRing(m)
	return func(rng *rand.Rand) *RangedCovar {
		if rng.Intn(8) == 0 {
			return nil // the zero
		}
		c := r.One()
		c.C = float64(rng.Intn(7) - 3)
		for i := range c.v {
			c.v[i] = float64(rng.Intn(7) - 3)
		}
		return c
	}
}

func TestCovarAxioms(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5} {
		r := NewCovarRing(m)
		checkRingAxioms[*RangedCovar](t, "Covar", r, randCovar(m),
			func(a, b *RangedCovar) bool {
				// Treat nil and the explicit all-zero value as equal.
				if r.IsZero(a) && r.IsZero(b) {
					return true
				}
				return a.Equal(b)
			})
	}
}

func TestCovarMulIsCommutative(t *testing.T) {
	r := NewCovarRing(3)
	gen := randCovar(3)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a, b := gen(rng), gen(rng)
		ab, ba := r.Mul(a, b), r.Mul(b, a)
		if !(r.IsZero(ab) && r.IsZero(ba)) && !ab.Equal(ba) {
			t.Fatalf("Mul not commutative: %v vs %v", ab, ba)
		}
	}
}

// TestCovarAgainstBruteForce checks that folding lift values with the
// ring product over a set of rows equals directly computed statistics.
func TestCovarAgainstBruteForce(t *testing.T) {
	const m = 3
	r := NewCovarRing(m)
	lifts := []Lift[*RangedCovar]{r.Lift(0), r.Lift(1), r.Lift(2)}
	rows := [][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{-1, 0, 2},
		{0.5, 0.5, 0.5},
	}
	total := r.Zero()
	for _, row := range rows {
		p := r.One()
		for i, x := range row {
			p = r.Mul(p, lifts[i](nil, value.Float(x)))
		}
		total = r.Add(total, p)
	}
	if total.Count() != float64(len(rows)) {
		t.Errorf("count = %v", total.Count())
	}
	for i := 0; i < m; i++ {
		var s float64
		for _, row := range rows {
			s += row[i]
		}
		if total.Sum(i) != s {
			t.Errorf("SUM(x%d) = %v, want %v", i, total.Sum(i), s)
		}
		for j := i; j < m; j++ {
			var q float64
			for _, row := range rows {
				q += row[i] * row[j]
			}
			if total.Prod(i, j) != q {
				t.Errorf("SUM(x%d*x%d) = %v, want %v", i, j, total.Prod(i, j), q)
			}
		}
	}
}

func TestCovarProdSymmetry(t *testing.T) {
	r := NewCovarRing(3)
	c := r.One()
	tri(c)[triIndex(3, 0, 2)] = 7
	if c.Prod(0, 2) != 7 || c.Prod(2, 0) != 7 {
		t.Error("Prod not symmetric")
	}
}

func TestCovarNilZeroAccessors(t *testing.T) {
	var c *RangedCovar
	if c.Count() != 0 || c.Sum(0) != 0 || c.Prod(1, 2) != 0 {
		t.Error("nil Covar accessors must return 0")
	}
	if c.String() != "(0)" {
		t.Errorf("nil String = %q", c.String())
	}
}

func TestCovarLiftValues(t *testing.T) {
	r := NewCovarRing(2)
	g := r.Lift(1)
	c := g(nil, value.Float(3))
	if c.Count() != 1 || c.Sum(0) != 0 || c.Sum(1) != 3 ||
		c.Prod(1, 1) != 9 || c.Prod(0, 1) != 0 {
		t.Errorf("lift = %v", c)
	}
}

func TestCovarLiftPanics(t *testing.T) {
	r := NewCovarRing(2)
	for _, idx := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for index %d", idx)
				}
			}()
			r.Lift(idx)
		}()
	}
}

func TestNewCovarRingPanicsOnBadDegree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for degree 0")
		}
	}()
	NewCovarRing(0)
}

func TestCovarIsZero(t *testing.T) {
	r := NewCovarRing(2)
	if !r.IsZero(nil) {
		t.Error("nil not zero")
	}
	z := r.One()
	z.C = 0
	if !r.IsZero(z) {
		t.Error("explicit zero not zero")
	}
	nz := r.One()
	if r.IsZero(nz) {
		t.Error("one is zero")
	}
	nzq := r.One()
	nzq.C = 0
	tri(nzq)[0] = 1
	if r.IsZero(nzq) {
		t.Error("nonzero Q reported zero")
	}
}

func TestCovarEqualEdgeCases(t *testing.T) {
	r := NewCovarRing(2)
	a := r.One()
	if a.Equal(nil) || (*RangedCovar)(nil).Equal(a) {
		t.Error("nil vs non-nil Equal")
	}
	if !(*RangedCovar)(nil).Equal(nil) {
		t.Error("nil vs nil")
	}
	b := r.One()
	sums(b)[1] = 5
	if a.Equal(b) {
		t.Error("different S equal")
	}
	r3 := NewCovarRing(3)
	if a.Equal(r3.One()) {
		t.Error("cross-degree equal")
	}
}

func TestTriIndexing(t *testing.T) {
	// Walk the packed triangle and ensure every (i, j) pair maps to a
	// unique index in range.
	for _, m := range []int{1, 2, 5, 10} {
		seen := map[int]bool{}
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				k := triIndex(m, i, j)
				if k < 0 || k >= triLen(m) {
					t.Fatalf("triIndex(%d,%d,%d) = %d out of range", m, i, j, k)
				}
				if seen[k] {
					t.Fatalf("triIndex(%d,%d,%d) = %d collides", m, i, j, k)
				}
				seen[k] = true
			}
		}
		if len(seen) != triLen(m) {
			t.Fatalf("m=%d: covered %d cells, want %d", m, len(seen), triLen(m))
		}
	}
}
