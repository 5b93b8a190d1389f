package ring

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// randRelCovar draws a degree-m RelCovar whose component schemas follow
// the invariant the ring relies on: C is 0-dimensional, S[i] is
// 0- or 1-dimensional (the 1-dim key identifying feature i), and Q[i][j]
// combines the corresponding parts. Coefficients are small integers.
func randRelCovar(m int) func(*rand.Rand) *RelCovar {
	r := NewRelCovarRing(m)
	return func(rng *rand.Rand) *RelCovar {
		if rng.Intn(8) == 0 {
			return nil
		}
		// Build as a sum of products of lifts: guaranteed to satisfy the
		// schema invariants.
		total := r.Zero()
		rows := 1 + rng.Intn(3)
		for t := 0; t < rows; t++ {
			p := r.One()
			for i := 0; i < m; i++ {
				var lf Lift[*RelCovar]
				if i%2 == 0 {
					lf = r.LiftCategorical(i)
				} else {
					lf = r.LiftContinuous(i)
				}
				p = r.Mul(p, lf(nil, value.Int(int64(rng.Intn(3)))))
			}
			if rng.Intn(4) == 0 {
				p = r.Neg(p)
			}
			total = r.Add(total, p)
		}
		return total
	}
}

func TestRelCovarAxioms(t *testing.T) {
	for _, m := range []int{1, 2, 3} {
		r := NewRelCovarRing(m)
		checkRingAxioms[*RelCovar](t, "RelCovar", r, randRelCovar(m),
			func(a, b *RelCovar) bool {
				if r.IsZero(a) && r.IsZero(b) {
					return true
				}
				if a == nil || b == nil {
					return false
				}
				return a.Equal(b)
			})
	}
}

func TestRelCovarMulCommutativeOnPayloads(t *testing.T) {
	// Although the raw relational product is key-order sensitive, the
	// RelCovar composition keeps the i-part first in every Q entry, so
	// payload multiplication commutes.
	r := NewRelCovarRing(3)
	gen := randRelCovar(3)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		a, b := gen(rng), gen(rng)
		ab, ba := r.Mul(a, b), r.Mul(b, a)
		if r.IsZero(ab) && r.IsZero(ba) {
			continue
		}
		if ab == nil || !ab.Equal(ba) {
			t.Fatalf("Mul not commutative:\n a=%v\n b=%v\nab=%v\nba=%v", a, b, ab, ba)
		}
	}
}

// TestRelCovarMatchesScalarCovarOnContinuous checks the embedding: with
// all-continuous lifts, the generalized ring must compute exactly the
// scalar ring's statistics (wrapped as 0-dim relations).
func TestRelCovarMatchesScalarCovarOnContinuous(t *testing.T) {
	const m = 3
	rs := NewCovarRing(m)
	rg := NewRelCovarRing(m)
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}, {-1, 0, 2}}

	ts := rs.Zero()
	tg := rg.Zero()
	for _, row := range rows {
		ps, pg := rs.One(), rg.One()
		for i, x := range row {
			ps = rs.Mul(ps, rs.Lift(i)(nil, value.Float(x)))
			pg = rg.Mul(pg, rg.LiftContinuous(i)(nil, value.Float(x)))
		}
		ts = rs.Add(ts, ps)
		tg = rg.Add(tg, pg)
	}
	if tg.Count().Scalar() != ts.Count() {
		t.Errorf("count: %v vs %v", tg.Count().Scalar(), ts.Count())
	}
	for i := 0; i < m; i++ {
		if tg.Sum(i).Scalar() != ts.Sum(i) {
			t.Errorf("S[%d]: %v vs %v", i, tg.Sum(i).Scalar(), ts.Sum(i))
		}
		for j := i; j < m; j++ {
			if tg.Prod(i, j).Scalar() != ts.Prod(i, j) {
				t.Errorf("Q[%d,%d]: %v vs %v", i, j, tg.Prod(i, j).Scalar(), ts.Prod(i, j))
			}
		}
	}
}

// TestRelCovarCategoricalBruteForce compares the categorical payload to
// directly computed group-by counts over rows of (cat, cont) pairs.
func TestRelCovarCategoricalBruteForce(t *testing.T) {
	r := NewRelCovarRing(2)
	gc := r.LiftCategorical(0)
	gx := r.LiftContinuous(1)
	type row struct {
		cat string
		x   float64
	}
	rows := []row{{"a", 1}, {"a", 2}, {"b", 3}, {"a", 4}, {"b", 5}}

	total := r.Zero()
	for _, rw := range rows {
		total = r.Add(total, r.Mul(gc(nil, value.String(rw.cat)), gx(nil, value.Float(rw.x))))
	}
	// s_cat = counts per category.
	counts := map[string]float64{}
	sumXby := map[string]float64{}
	var sumX, sumXX float64
	for _, rw := range rows {
		counts[rw.cat]++
		sumXby[rw.cat] += rw.x
		sumX += rw.x
		sumXX += rw.x * rw.x
	}
	for cat, n := range counts {
		if got := total.Sum(0).Get(value.T(cat)); got != n {
			t.Errorf("s_cat(%s) = %v, want %v", cat, got, n)
		}
		if got := total.Prod(0, 0).Get(value.T(cat)); got != n {
			t.Errorf("Q_cc(%s) = %v, want %v", cat, got, n)
		}
		if got := total.Prod(0, 1).Get(value.T(cat)); got != sumXby[cat] {
			t.Errorf("Q_cx(%s) = %v, want %v", cat, got, sumXby[cat])
		}
	}
	if got := total.Sum(1).Scalar(); got != sumX {
		t.Errorf("SUM(x) = %v, want %v", got, sumX)
	}
	if got := total.Prod(1, 1).Scalar(); got != sumXX {
		t.Errorf("SUM(x*x) = %v, want %v", got, sumXX)
	}
	if got := total.Count().Scalar(); got != float64(len(rows)) {
		t.Errorf("count = %v", got)
	}
}

func TestRelCovarLiftBinned(t *testing.T) {
	r := NewRelCovarRing(1)
	g := r.LiftBinned(0, 10)
	for _, c := range []struct {
		x    float64
		want int64
	}{{0, 0}, {9.9, 0}, {10, 1}, {25, 2}, {-0.1, -1}, {-10, -1}, {-10.5, -2}, {-20, -2}} {
		p := g(nil, value.Float(c.x))
		if got := p.Sum(0).Get(value.T(c.want)); got != 1 {
			t.Errorf("bin(%v): payload %v, want bin %d", c.x, p.Sum(0), c.want)
		}
	}
}

func TestRelCovarLiftBinnedPanicsOnBadWidth(t *testing.T) {
	r := NewRelCovarRing(1)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	r.LiftBinned(0, 0)
}

func TestRelCovarNilAccessors(t *testing.T) {
	var c *RelCovar
	if c.Count() != nil || c.Sum(0) != nil || c.Prod(0, 1) != nil {
		t.Error("nil accessors must return nil")
	}
	if c.String() != "(0)" {
		t.Error("nil String")
	}
	if !c.Equal(nil) {
		t.Error("nil Equal nil")
	}
}

func TestRelCovarDeleteCancelsInsert(t *testing.T) {
	// The paper's delete encoding: adding Neg(payload) must cancel the
	// earlier insert exactly, leaving the ring zero.
	r := NewRelCovarRing(2)
	p := r.Mul(r.LiftCategorical(0)(nil, value.String("a")), r.LiftContinuous(1)(nil, value.Float(2.5)))
	sum := r.Add(p, r.Neg(p))
	if !r.IsZero(sum) {
		t.Errorf("insert+delete left %v", sum)
	}
}

func TestRelCovarProdKeyOrientation(t *testing.T) {
	// Q_ij keys must carry the i-part first regardless of multiplication
	// order.
	r := NewRelCovarRing(2)
	a := r.LiftCategorical(0)(nil, value.String("x0"))
	b := r.LiftCategorical(1)(nil, value.String("y1"))
	for _, p := range []*RelCovar{r.Mul(a, b), r.Mul(b, a)} {
		q := p.Prod(0, 1)
		if q.Get(value.T("x0", "y1")) != 1 {
			t.Errorf("Q_01 = %v, want {(x0, y1)->1}", q)
		}
	}
}

func TestNewRelCovarRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewRelCovarRing(-1)
}

func TestRelCovarLiftIndexPanics(t *testing.T) {
	r := NewRelCovarRing(2)
	for _, fn := range []func(){
		func() { r.LiftContinuous(2) },
		func() { r.LiftCategorical(-1) },
		func() { r.LiftBinned(5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}

// TestRelCovarMaxDegree: the largest degree's last slot still packs
// into the key's slot bits, and one more is refused.
func TestRelCovarMaxDegree(t *testing.T) {
	const m = MaxRelCovarDegree
	r := NewRelCovarRing(m)
	p := r.Mul(r.LiftCategorical(m-1)(nil, value.String("last")), r.LiftContinuous(0)(nil, value.Float(2)))
	if got := p.Prod(0, m-1).Get(value.T("last")); got != 2 {
		t.Errorf("Q_0,%d = %v, want {(last)->2}", m-1, p.Prod(0, m-1))
	}
	if got := p.Prod(m-1, m-1).Get(value.T("last")); got != 1 || p.Sum(m-1).Len() != 1 {
		t.Errorf("Q_%d,%d = %v, s = %v", m-1, m-1, p.Prod(m-1, m-1), p.Sum(m-1))
	}
	var last [2]int
	p.Visit(func(i, j int, _, _ CatID, _ float64) bool {
		last = [2]int{i, j}
		return true
	})
	if last != [2]int{m - 1, m - 1} {
		t.Errorf("last visited component = %v, want (%d, %d)", last, m-1, m-1)
	}
	defer func() {
		if recover() == nil {
			t.Error("degree above MaxRelCovarDegree accepted")
		}
	}()
	NewRelCovarRing(m + 1)
}
