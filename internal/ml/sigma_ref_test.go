package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
)

// denseSigma is the reference the sparse SigmaMatrix and its solver are
// held to: Σ as the dense row-major n×n matrix the solver ran on before
// it went sparse, built by the same expansion rules through a map from
// (feature, category) to column.
type denseSigma struct {
	Count float64
	Cols  []Column
	Sum   []float64
	Data  []float64
	n     int
}

func (m *denseSigma) set(i, j int, v float64) {
	m.Data[i*m.n+j] = v
	m.Data[j*m.n+i] = v
}

// denseSigmaFromRelCovar is the dense builder: one Visit collects the
// categories, a second fills the matrix.
func denseSigmaFromRelCovar(c *ring.RelCovar, feats []Feature) (*denseSigma, error) {
	if c == nil {
		return nil, fmt.Errorf("ml: nil payload (empty join result)")
	}
	featAt := make([]int, c.Degree())
	for i := range featAt {
		featAt[i] = -1
	}
	for a, f := range feats {
		if f.Index < 0 || f.Index >= len(featAt) {
			return nil, fmt.Errorf("ml: feature %s has index %d outside the degree-%d payload", f.Name, f.Index, len(featAt))
		}
		featAt[f.Index] = a
	}
	type category struct {
		id  ring.CatID
		val value.Value
	}
	catsOf := make([][]category, len(feats))
	var err error
	c.Visit(func(i, j int, p1, _ ring.CatID, _ float64) bool {
		if j >= 0 {
			return false
		}
		if i < 0 || featAt[i] < 0 || !feats[featAt[i]].Categorical {
			return true
		}
		a := featAt[i]
		if p1 == 0 {
			err = fmt.Errorf("ml: s_%s holds tuple (), want arity 1", feats[a].Name)
			return false
		}
		catsOf[a] = append(catsOf[a], category{p1, value.MustDecodeTuple(ring.CategoryKey(p1))[0]})
		return true
	})
	if err != nil {
		return nil, err
	}
	colKey := func(a int, id ring.CatID) uint64 { return uint64(a)<<32 | uint64(id) }
	colOf := make(map[uint64]int)
	var cols []Column
	for a, f := range feats {
		if !f.Categorical {
			colOf[colKey(a, 0)] = len(cols)
			cols = append(cols, Column{Attr: f.Name})
			continue
		}
		cs := catsOf[a]
		sort.Slice(cs, func(x, y int) bool { return cs[x].val.Compare(cs[y].val) < 0 })
		for _, ct := range cs {
			colOf[colKey(a, ct.id)] = len(cols)
			cols = append(cols, Column{Attr: f.Name, Category: ct.val, IsCat: true})
		}
	}
	n := len(cols)
	m := &denseSigma{n: n, Cols: cols, Sum: make([]float64, n), Data: make([]float64, n*n)}
	c.Visit(func(i, j int, p1, p2 ring.CatID, v float64) bool {
		switch {
		case i < 0:
			m.Count = v
		case j < 0:
			if a := featAt[i]; a >= 0 {
				if col, ok := colOf[colKey(a, p1)]; ok {
					m.Sum[col] = v
				}
			}
		default:
			a, b := featAt[i], featAt[j]
			if a < 0 || b < 0 {
				return true
			}
			ida, idb := ring.CatID(0), ring.CatID(0)
			rest := [2]ring.CatID{p1, p2}
			if feats[a].Categorical {
				ida, rest = rest[0], [2]ring.CatID{rest[1], 0}
			}
			if i == j {
				idb = ida
			} else if feats[b].Categorical {
				idb, rest = rest[0], [2]ring.CatID{rest[1], 0}
			}
			if rest[0] != 0 || (ida == 0) == feats[a].Categorical || (idb == 0) == feats[b].Categorical {
				err = fmt.Errorf("ml: Q_%s,%s key has unexpected arity", feats[a].Name, feats[b].Name)
				return false
			}
			ci, okA := colOf[colKey(a, ida)]
			cj, okB := colOf[colKey(b, idb)]
			if okA && okB {
				m.set(ci, cj, v)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// denseFit is Fit on the system matrix built once as a flat n×n slice.
func (r *RidgeModel) denseFit(m *denseSigma, cfg RidgeConfig) error {
	n, y := m.n, r.LabelCol
	if m.Count <= 0 {
		return fmt.Errorf("ml: cannot fit on an empty training set")
	}
	mu, sd := make([]float64, n), make([]float64, n)
	for i := range mu {
		mu[i] = m.Sum[i] / m.Count
		sd[i] = 1
		if v := m.Data[i*n+i]/m.Count - mu[i]*mu[i]; cfg.Normalize && v > 1e-12 {
			sd[i] = math.Sqrt(v)
		}
	}
	a, b, x := make([]float64, n*n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		if i == y {
			continue
		}
		row, src := a[i*n:(i+1)*n], m.Data[i*n:(i+1)*n]
		for j := range row {
			row[j] = (src[j]/m.Count - mu[i]*mu[j]) / (sd[i] * sd[j])
		}
		b[i], row[y] = row[y], 0
		row[i] += cfg.Lambda
		x[i] = r.Weights[i] * sd[i] / sd[y]
	}
	mulA := func(dst, v []float64) {
		for i := range dst {
			var s float64
			for j, aij := range a[i*n : (i+1)*n] {
				s += aij * v[j]
			}
			dst[i] = s
		}
	}
	res, p, ap := make([]float64, n), make([]float64, n), make([]float64, n)
	mulA(ap, x)
	var rr float64
	for i := range res {
		res[i] = b[i] - ap[i]
		rr += res[i] * res[i]
	}
	copy(p, res)
	r.Converged, r.Iterations = false, 0
	for {
		var maxAbs float64
		for _, v := range res {
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
		if r.Converged = maxAbs < cfg.Tolerance; r.Converged || r.Iterations >= cfg.MaxIters {
			break
		}
		mulA(ap, p)
		var pap float64
		for i := range p {
			pap += p[i] * ap[i]
		}
		if pap <= 0 {
			break
		}
		r.Iterations++
		alpha, prev := rr/pap, rr
		rr = 0
		for i := range x {
			x[i] += alpha * p[i]
			res[i] -= alpha * ap[i]
			rr += res[i] * res[i]
		}
		for i := range p {
			p[i] = res[i] + rr/prev*p[i]
		}
	}
	r.Intercept = mu[y]
	for i := range x {
		r.Weights[i] = x[i] * sd[y] / sd[i]
		r.Intercept -= r.Weights[i] * mu[i]
	}
	r.Cols = m.Cols
	return nil
}

// denseTrainRMSE is TrainRMSE over every entry of the dense Σ.
func (r *RidgeModel) denseTrainRMSE(m *denseSigma) float64 {
	n, y := m.n, r.LabelCol
	var quad, lin float64
	for i := 0; i < n; i++ {
		if i == y {
			continue
		}
		wi := r.Weights[i]
		for j := 0; j < n; j++ {
			if j != y {
				quad += wi * r.Weights[j] * m.Data[i*n+j]
			}
		}
		lin += wi * (r.Intercept*m.Sum[i] - m.Data[i*n+y])
	}
	mse := (quad + 2*lin + m.Count*r.Intercept*r.Intercept - 2*r.Intercept*m.Sum[y] + m.Data[y*n+y]) / m.Count
	return math.Sqrt(math.Max(mse, 0))
}

// CheckSparseSigma holds sigma, built from payload over feats, to the
// dense reference: Count, Sum, the columns and every At(i, j) exactly.
// Given the model fit to sigma under cfg from warm (nil for a cold
// start), it also holds the model's weights within 1e-6 of a dense fit
// from the same start, relative in max-norm, its intercept within 1e-6
// relative, and its TrainRMSE within 1e-9 relative of the dense one.
// It is exported to the package's external tests, which drive it from a
// served engine.
func CheckSparseSigma(t testing.TB, payload *ring.RelCovar, feats []Feature, sigma *SigmaMatrix, model, warm *RidgeModel, cfg RidgeConfig) {
	t.Helper()
	d, err := denseSigmaFromRelCovar(payload, feats)
	if err != nil {
		t.Fatalf("dense reference: %v", err)
	}
	if sigma.Count != d.Count || !slices.Equal(sigma.Sum, d.Sum) || !slices.Equal(sigma.Cols, d.Cols) {
		t.Fatalf("count %v, sums %v, columns %v; dense %v, %v, %v", sigma.Count, sigma.Sum, sigma.Cols, d.Count, d.Sum, d.Cols)
	}
	for i := 0; i < d.n; i++ {
		for j := 0; j < d.n; j++ {
			if got, want := sigma.At(i, j), d.Data[i*d.n+j]; got != want {
				t.Fatalf("At(%d, %d) = %v, dense %v", i, j, got, want)
			}
		}
	}
	if model == nil {
		return
	}
	ref := warm.Clone()
	if ref == nil {
		ref = NewRidge(sigma, model.LabelCol)
	}
	ref.Remap(sigma, model.LabelCol)
	if err := ref.denseFit(d, cfg); err != nil {
		t.Fatalf("dense fit: %v", err)
	}
	var scale, diff float64
	for i, w := range ref.Weights {
		scale, diff = math.Max(scale, math.Abs(w)), math.Max(diff, math.Abs(model.Weights[i]-w))
	}
	if diff > 1e-6*scale || math.Abs(model.Intercept-ref.Intercept) > 1e-6*math.Abs(ref.Intercept) {
		t.Fatalf("sparse fit (%d steps): intercept %v, weights %v\ndense fit (%d steps): intercept %v, weights %v",
			model.Iterations, model.Intercept, model.Weights, ref.Iterations, ref.Intercept, ref.Weights)
	}
	if got, want := model.TrainRMSE(sigma), model.denseTrainRMSE(d); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("TrainRMSE %v, dense %v", got, want)
	}
}

// FuzzSparseSigma builds random mixed payloads through the ring's lifts
// — continuous, categorical and binned features, listed in a shuffled
// order and sometimes without one of them — plus a category whose
// count, sums and co-occurrences a delete cancels exactly while the
// rounding leftovers of its products with the continuous features
// remain, and holds SigmaFromRelCovar, a cold Fit and TrainRMSE to the
// dense reference, and MIFromRelCovar over the categorical and binned
// features to the relational-ring reference.
func FuzzSparseSigma(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed*30))
	}
	f.Add(int64(9), uint8(0)) // only the cancelled category: no column at all
	f.Fuzz(func(t *testing.T, seed int64, rows uint8) {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(4)
		r := ring.NewRelCovarRing(m)
		kind := make([]int, m) // 0 continuous, 1 categorical, 2 binned; f0, the label, is continuous
		lifts := make([]ring.Lift[*ring.RelCovar], m)
		feats := make([]Feature, m)
		for i := range feats {
			if i > 0 {
				kind[i] = rng.Intn(3)
			}
			switch kind[i] {
			case 0:
				lifts[i] = r.LiftContinuous(i)
			case 1:
				lifts[i] = r.LiftCategorical(i)
			default:
				lifts[i] = r.LiftBinned(i, 2.5)
			}
			feats[i] = Feature{Name: fmt.Sprintf("f%d", i), Categorical: kind[i] > 0, Index: i}
		}
		// tuple lifts a random row; x >= 0 makes it a row of the category
		// that cancels instead: "gone", bin 400, and x for every
		// continuous feature.
		tuple := func(x float64) *ring.RelCovar {
			p := r.One()
			for i, g := range lifts {
				v := value.Float(float64(rng.Intn(41)-20) / 4)
				switch {
				case kind[i] == 1 && x >= 0:
					v = value.String("gone")
				case kind[i] == 1:
					v = value.String(string(rune('a' + rng.Intn(6))))
				case kind[i] == 2 && x >= 0:
					v = value.Float(1000)
				case x >= 0:
					v = value.Float(x)
				}
				p = r.Mul(p, g(nil, v))
			}
			return p
		}
		var total *ring.RelCovar
		for k := 0; k < int(rows); k++ {
			total = r.Add(total, tuple(-1))
		}
		// 0.1 + 0.2 − 0.1 − 0.2 is 2^-55, not 0.
		for _, x := range []float64{0.1, 0.2} {
			total = r.Add(total, tuple(x))
		}
		for _, x := range []float64{0.1, 0.2} {
			total = r.Add(total, r.Neg(tuple(x)))
		}
		rng.Shuffle(m, func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		if last := feats[m-1]; m > 2 && last.Index != 0 && rng.Intn(3) == 0 {
			feats = feats[:m-1]
		}
		sigma, err := SigmaFromRelCovar(total, feats)
		if err != nil {
			t.Fatal(err)
		}
		var model *RidgeModel
		cfg := RidgeConfig{Lambda: 1e-3, MaxIters: 5000, Tolerance: 1e-11, Normalize: true}
		if sigma.Count > 0 {
			model = NewRidge(sigma, sigma.ColumnsOf("f0")[0])
			if err := model.Fit(sigma, cfg); err != nil {
				t.Fatal(err)
			}
		}
		CheckSparseSigma(t, total, feats, sigma, model, nil, cfg)
		var cats []Feature
		for _, f := range feats {
			if f.Categorical {
				cats = append(cats, f)
			}
		}
		checkMI(t, total, cats, 1)
	})
}
