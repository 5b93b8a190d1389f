package ml

import (
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
)

func TestSigmaFromCovar(t *testing.T) {
	var r ring.RangedCovarRing
	total := r.Zero()
	rows := [][]float64{{1, 10}, {2, 20}, {3, 30}}
	for _, row := range rows {
		p := r.Mul(r.Lift(0)(value.Float(row[0])), r.Lift(1)(value.Float(row[1])))
		total = r.Add(total, p)
	}
	feats := []Feature{{Name: "x", Index: 0}, {Name: "y", Index: 1}}
	m, err := SigmaFromCovar(total.Widen([]int{0, 1}), feats)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 3 {
		t.Errorf("count = %v", m.Count)
	}
	if m.Sum[0] != 6 || m.Sum[1] != 60 {
		t.Errorf("sums = %v", m.Sum)
	}
	if m.At(0, 0) != 14 || m.At(0, 1) != 140 || m.At(1, 1) != 1400 {
		t.Errorf("products = %v %v %v", m.At(0, 0), m.At(0, 1), m.At(1, 1))
	}
	if m.At(0, 1) != m.At(1, 0) {
		t.Error("matrix not symmetric")
	}
	if cols := m.ColumnsOf("y"); len(cols) != 1 || cols[0] != 1 {
		t.Errorf("ColumnsOf = %v", cols)
	}
	if m.Cols[0].Label() != "x" {
		t.Errorf("Label = %q", m.Cols[0].Label())
	}
}

func TestSigmaFromCovarRejectsCategorical(t *testing.T) {
	one := ring.RangedCovarRing{}.One().Widen([]int{0})
	if _, err := SigmaFromCovar(one, []Feature{{Name: "c", Categorical: true, Index: 0}}); err == nil {
		t.Error("categorical feature accepted by scalar extraction")
	}
}

func TestSigmaFromRelCovarMixed(t *testing.T) {
	// Rows of (cat, x, y): categories "a" (twice) and "b" (once).
	r := ring.NewRelCovarRing(3)
	gc := r.LiftCategorical(0)
	gx := r.LiftContinuous(1)
	gy := r.LiftContinuous(2)
	type row struct {
		c    string
		x, y float64
	}
	rows := []row{{"a", 1, 10}, {"a", 2, 20}, {"b", 3, 30}}
	total := r.Zero()
	for _, rw := range rows {
		p := r.Mul(r.Mul(gc(value.String(rw.c)), gx(value.Float(rw.x))), gy(value.Float(rw.y)))
		total = r.Add(total, p)
	}
	feats := []Feature{
		{Name: "c", Categorical: true, Index: 0},
		{Name: "x", Index: 1},
		{Name: "y", Index: 2},
	}
	m, err := SigmaFromRelCovar(total, feats)
	if err != nil {
		t.Fatal(err)
	}
	// Columns: c=a, c=b, x, y.
	if m.Dim() != 4 {
		t.Fatalf("dim = %d, want 4", m.Dim())
	}
	ca := m.ColumnsOf("c")
	if len(ca) != 2 {
		t.Fatalf("categorical columns = %v", ca)
	}
	if !m.Cols[ca[0]].IsCat || m.Cols[ca[0]].Label() != "c=a" {
		t.Errorf("first column = %+v", m.Cols[ca[0]])
	}
	ia, ib := ca[0], ca[1]
	ix := m.ColumnsOf("x")[0]
	iy := m.ColumnsOf("y")[0]

	if m.Count != 3 {
		t.Errorf("count = %v", m.Count)
	}
	// One-hot sums are category counts.
	if m.Sum[ia] != 2 || m.Sum[ib] != 1 {
		t.Errorf("one-hot sums = %v, %v", m.Sum[ia], m.Sum[ib])
	}
	// Diagonal one-hot blocks: SUM(1) per category, zero across.
	if m.At(ia, ia) != 2 || m.At(ib, ib) != 1 || m.At(ia, ib) != 0 {
		t.Errorf("one-hot diag = %v %v %v", m.At(ia, ia), m.At(ib, ib), m.At(ia, ib))
	}
	// Cat × continuous: SUM(x) per category.
	if m.At(ia, ix) != 3 || m.At(ib, ix) != 3 {
		t.Errorf("Q(c,x) = %v, %v", m.At(ia, ix), m.At(ib, ix))
	}
	if m.At(ia, iy) != 30 || m.At(ib, iy) != 30 {
		t.Errorf("Q(c,y) = %v, %v", m.At(ia, iy), m.At(ib, iy))
	}
	// Continuous block.
	if m.At(ix, ix) != 14 || m.At(ix, iy) != 140 || m.At(iy, iy) != 1400 {
		t.Errorf("continuous block = %v %v %v", m.At(ix, ix), m.At(ix, iy), m.At(iy, iy))
	}
	// Symmetry everywhere.
	for i := 0; i < m.Dim(); i++ {
		for j := 0; j < m.Dim(); j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatalf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

func TestSigmaFromRelCovarTwoCategoricals(t *testing.T) {
	r := ring.NewRelCovarRing(2)
	g1 := r.LiftCategorical(0)
	g2 := r.LiftCategorical(1)
	total := r.Zero()
	// (u, x) co-occur twice; (v, y) once.
	for i := 0; i < 2; i++ {
		total = r.Add(total, r.Mul(g1(value.String("u")), g2(value.String("x"))))
	}
	total = r.Add(total, r.Mul(g1(value.String("v")), g2(value.String("y"))))

	feats := []Feature{
		{Name: "p", Categorical: true, Index: 0},
		{Name: "q", Categorical: true, Index: 1},
	}
	m, err := SigmaFromRelCovar(total, feats)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 4 { // p=u, p=v, q=x, q=y
		t.Fatalf("dim = %d", m.Dim())
	}
	iu, iv := m.ColumnsOf("p")[0], m.ColumnsOf("p")[1]
	ixq, iyq := m.ColumnsOf("q")[0], m.ColumnsOf("q")[1]
	if m.At(iu, ixq) != 2 || m.At(iv, iyq) != 1 {
		t.Errorf("co-occurrence block wrong: %v, %v", m.At(iu, ixq), m.At(iv, iyq))
	}
	if m.At(iu, iyq) != 0 || m.At(iv, ixq) != 0 {
		t.Errorf("never-co-occurring pairs nonzero: %v, %v", m.At(iu, iyq), m.At(iv, ixq))
	}
}

func TestSigmaFromRelCovarNil(t *testing.T) {
	if _, err := SigmaFromRelCovar(nil, nil); err == nil {
		t.Error("nil payload accepted")
	}
}

// TestSigmaFromRelCovarFeatureOrder: feats may list the features in any
// order and any subset; columns follow feats, values follow the ring
// indexes.
func TestSigmaFromRelCovarFeatureOrder(t *testing.T) {
	r := ring.NewRelCovarRing(3)
	total := r.Zero()
	for _, rw := range []struct {
		c    string
		x, y float64
	}{{"a", 1, 10}, {"b", 2, 20}, {"a", 3, 30}} {
		p := r.Mul(r.Mul(r.LiftContinuous(0)(value.Float(rw.x)), r.LiftCategorical(1)(value.String(rw.c))), r.LiftContinuous(2)(value.Float(rw.y)))
		total = r.Add(total, p)
	}
	m, err := SigmaFromRelCovar(total, []Feature{
		{Name: "y", Index: 2},
		{Name: "c", Categorical: true, Index: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 3 || m.Cols[0].Attr != "y" || m.Cols[1].Label() != "c=a" || m.Cols[2].Label() != "c=b" {
		t.Fatalf("columns = %+v", m.Cols)
	}
	if m.Sum[0] != 60 || m.Sum[1] != 2 || m.At(0, 1) != 40 || m.At(2, 0) != 20 || m.At(1, 1) != 2 || m.At(0, 0) != 1400 {
		t.Errorf("sums %v, Q(y,c=a) %v, Q(c=b,y) %v, Q(c=a,c=a) %v, Q(y,y) %v",
			m.Sum, m.At(0, 1), m.At(2, 0), m.At(1, 1), m.At(0, 0))
	}
}

// TestSigmaFromRelCovarMistypedFeatures: a feature declared with the
// wrong kind is reported, not read out of a wrong column.
func TestSigmaFromRelCovarMistypedFeatures(t *testing.T) {
	r := ring.NewRelCovarRing(2)
	p := r.Mul(r.LiftCategorical(0)(value.String("u")), r.LiftContinuous(1)(value.Float(2)))
	for name, feats := range map[string][]Feature{
		"continuous declared categorical": {{Name: "p", Categorical: true, Index: 0}, {Name: "q", Categorical: true, Index: 1}},
		"categorical declared continuous": {{Name: "p", Index: 0}, {Name: "q", Index: 1}},
		"index outside the payload":       {{Name: "p", Categorical: true, Index: 2}},
	} {
		if m, err := SigmaFromRelCovar(p, feats); err == nil {
			t.Errorf("%s: accepted, columns %+v", name, m.Cols)
		}
	}
}

// TestSigmaFromRelCovarCancelledCategory: after a delete cancels a
// category's count while signed products of it remain, the category has
// no column and its leftovers are left out.
func TestSigmaFromRelCovarCancelledCategory(t *testing.T) {
	r := ring.NewRelCovarRing(2)
	row := func(c string, x float64) *ring.RelCovar {
		return r.Mul(r.LiftCategorical(0)(value.String(c)), r.LiftContinuous(1)(value.Float(x)))
	}
	// +(u,1) -(u,3) +(v,2): s_c(u) cancels, Q_cx(u) = -2 remains.
	total := r.Add(r.Add(row("u", 1), r.Neg(row("u", 3))), row("v", 2))
	m, err := SigmaFromRelCovar(total, []Feature{{Name: "c", Categorical: true, Index: 0}, {Name: "x", Index: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 2 || m.Cols[0].Label() != "c=v" || m.At(0, 1) != 2 || m.Count != 1 {
		t.Errorf("columns %+v, Q(c=v,x) = %v, count %v", m.Cols, m.At(0, 1), m.Count)
	}
}
