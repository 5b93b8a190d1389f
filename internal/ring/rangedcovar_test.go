package ring

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// TestRangedMatchesFullOnChain folds random rows through both the full
// degree-m ring and the ranged ring (indexes 0..m-1 in product order)
// and compares every statistic — the equivalence that justifies the
// optimization.
func TestRangedMatchesFullOnChain(t *testing.T) {
	const m = 4
	full := NewCovarRing(m)
	var ranged RangedCovarRing
	rng := rand.New(rand.NewSource(21))

	for iter := 0; iter < 50; iter++ {
		tf := full.Zero()
		tr := ranged.Zero()
		rows := 1 + rng.Intn(6)
		for k := 0; k < rows; k++ {
			pf, pr := full.One(), ranged.One()
			for i := 0; i < m; i++ {
				x := value.Float(float64(rng.Intn(9) - 4))
				pf = full.Mul(pf, full.Lift(i)(nil, x))
				pr = ranged.Mul(pr, ranged.Lift(i)(nil, x))
			}
			if rng.Intn(4) == 0 {
				pf, pr = full.Neg(pf), ranged.Neg(pr)
			}
			tf = full.Add(tf, pf)
			tr = ranged.Add(tr, pr)
		}
		if tf == nil || tr == nil {
			continue
		}
		if widened := tr.Widen([]int{0, 1, 2, 3}); !widened.Equal(tf) {
			t.Fatalf("iter %d:\nranged  %v\nfull    %v", iter, widened, tf)
		}
	}
}

// TestRangedBlockProduct checks one disjoint-range product against
// hand-computed blocks.
func TestRangedBlockProduct(t *testing.T) {
	var r RangedCovarRing
	// a covers index 0 with x=2 (two rows summed: count 2, s=[3], from
	// rows x=1 and x=2).
	a := r.Add(r.Lift(0)(nil, value.Float(1)), r.Lift(0)(nil, value.Float(2)))
	// b covers index 1 with one row y=5.
	b := r.Lift(1)(nil, value.Float(5))
	p := r.Mul(a, b)
	if p.Start != 0 || p.N != 2 {
		t.Fatalf("range = [%d,%d)", p.Start, p.Start+p.N)
	}
	if p.Count() != 2 {
		t.Errorf("count = %v", p.Count())
	}
	// s = [cb*sa | ca*sb] = [1*3 | 2*5].
	if p.Sum(0) != 3 || p.Sum(1) != 10 {
		t.Errorf("s = [%v %v]", p.Sum(0), p.Sum(1))
	}
	// Q00 = cb*Qa00 = 1*(1+4); Q11 = ca*Qb11 = 2*25; Q01 = sa*sb = 3*5.
	if p.Prod(0, 0) != 5 || p.Prod(1, 1) != 50 || p.Prod(0, 1) != 15 {
		t.Errorf("Q = [%v %v %v]", p.Prod(0, 0), p.Prod(0, 1), p.Prod(1, 1))
	}
	// Commuted product gives the identical payload (ranges reorder).
	if q := r.Mul(b, a); !q.Equal(p) {
		t.Errorf("b*a = %v, want %v", q, p)
	}
}

func TestRangedScalarOperand(t *testing.T) {
	var r RangedCovarRing
	two := r.Add(r.One(), r.One()) // scalar 2, empty range
	x := r.Lift(3)(nil, value.Float(4))
	p := r.Mul(two, x)
	if p.Start != 3 || p.N != 1 {
		t.Fatalf("range = [%d,%d)", p.Start, p.Start+p.N)
	}
	if p.Count() != 2 || p.Sum(3) != 8 || p.Prod(3, 3) != 32 {
		t.Errorf("payload = %v", p)
	}
}

func TestRangedAdjacencyViolationPanics(t *testing.T) {
	var r RangedCovarRing
	a := r.Lift(0)(nil, value.Float(1))
	c := r.Lift(2)(nil, value.Float(1)) // gap at index 1
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-adjacent ranges")
		}
	}()
	r.Mul(a, c)
}

func TestRangedAddRangeMismatchPanics(t *testing.T) {
	var r RangedCovarRing
	a := r.Lift(0)(nil, value.Float(1))
	b := r.Lift(1)(nil, value.Float(1))
	defer func() {
		if recover() == nil {
			t.Error("no panic for mismatched Add ranges")
		}
	}()
	r.Add(a, b)
}

func TestRangedAccessorsAndZero(t *testing.T) {
	var r RangedCovarRing
	var nilP *RangedCovar
	if nilP.Count() != 0 || nilP.Sum(0) != 0 || nilP.Prod(0, 1) != 0 {
		t.Error("nil accessors")
	}
	if nilP.String() != "(0)" {
		t.Error("nil String")
	}
	if !nilP.Equal(nil) {
		t.Error("nil Equal")
	}
	if nilP.Widen([]int{0, 1}) != nil || nilP.Widen([]int{0, 1}).Widen([]int{1, 0}) != nil {
		t.Error("nil Widen")
	}
	if !r.IsZero(nil) {
		t.Error("nil not zero")
	}
	one := r.One()
	if r.IsZero(one) {
		t.Error("one is zero")
	}
	z := r.Add(one, r.Neg(one))
	if !r.IsZero(z) {
		t.Errorf("1 + (-1) = %v", z)
	}
	// Out-of-range global reads return 0 rather than panicking.
	p := r.Lift(2)(nil, value.Float(3))
	if p.Sum(0) != 0 || p.Prod(0, 2) != 0 || p.Sum(2) != 3 {
		t.Error("global-index reads wrong")
	}
	if s := p.String(); s == "" {
		t.Error("empty String")
	}
}

// TestRangedWiden: Widen reads the payload through a permutation into
// caller order — sums, both triangles of Q, and 0 outside the range —
// and Widen of the inverse permutation restores it exactly.
func TestRangedWiden(t *testing.T) {
	var r RangedCovarRing
	rng := rand.New(rand.NewSource(4))
	p := r.One()
	for i := 0; i < 3; i++ {
		p = r.Mul(p, r.Lift(i)(nil, value.Float(rng.NormFloat64())))
	}
	p = r.Add(p, r.Mul(r.Mul(r.Lift(0)(nil, value.Float(2)), r.Lift(1)(nil, value.Float(-3))), r.Lift(2)(nil, value.Float(5))))
	perm, inv := []int{2, 0, 1}, []int{1, 2, 0}
	w := p.Widen(perm)
	if w.Start != 0 || w.N != 3 || w.Count() != p.Count() {
		t.Fatalf("widened %v from %v", w, p)
	}
	if back := w.Widen(inv); !back.Equal(p) {
		t.Errorf("Widen(Widen(p, perm), inv) = %v, want %v", back, p)
	}
	for i, g := range perm {
		if w.Sum(i) != p.Sum(g) {
			t.Errorf("Sum(%d) = %v, want ranged Sum(%d) = %v", i, w.Sum(i), g, p.Sum(g))
		}
		for j, h := range perm {
			if w.Prod(i, j) != p.Prod(g, h) {
				t.Errorf("Prod(%d,%d) = %v, want ranged Prod(%d,%d) = %v", i, j, w.Prod(i, j), g, h, p.Prod(g, h))
			}
		}
	}
	// A payload narrower than perm widens with zeros outside its range.
	leaf := r.Lift(1)(nil, value.Float(4))
	if w := leaf.Widen(perm); w.Sum(2) != 4 || w.Prod(2, 2) != 16 || w.Sum(0) != 0 || w.Prod(0, 2) != 0 || w.Count() != 1 {
		t.Errorf("leaf widened to %v", w)
	}
}

func TestRangedLiftNegativeIndexPanics(t *testing.T) {
	var r RangedCovarRing
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	r.Lift(-1)
}
