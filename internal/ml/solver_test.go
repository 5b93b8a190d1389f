package ml

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// directRidge solves the same objective Fit minimizes by forming the
// standardized (or, without normalize, centred) normal equations from
// the raw rows and eliminating with partial pivoting — a reference that
// shares no code with the conjugate-gradient kernel.
func directRidge(rows [][]float64, y int, lambda float64, normalize bool) (intercept float64, weights []float64) {
	n, cnt := len(rows[0]), float64(len(rows))
	mu, sd := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		for _, r := range rows {
			mu[i] += r[i] / cnt
		}
		var v float64
		for _, r := range rows {
			v += (r[i] - mu[i]) * (r[i] - mu[i]) / cnt
		}
		sd[i] = 1
		if normalize && v > 1e-12 {
			sd[i] = math.Sqrt(v)
		}
	}
	var feat []int
	for i := 0; i < n; i++ {
		if i != y {
			feat = append(feat, i)
		}
	}
	k := len(feat)
	a := make([][]float64, k) // augmented [A | b]
	for p, i := range feat {
		a[p] = make([]float64, k+1)
		for q, j := range feat {
			for _, r := range rows {
				a[p][q] += (r[i] - mu[i]) / sd[i] * (r[j] - mu[j]) / sd[j] / cnt
			}
		}
		a[p][p] += lambda
		for _, r := range rows {
			a[p][k] += (r[i] - mu[i]) / sd[i] * (r[y] - mu[y]) / sd[y] / cnt
		}
	}
	for c := 0; c < k; c++ {
		piv := c
		for r := c + 1; r < k; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[piv][c]) {
				piv = r
			}
		}
		a[c], a[piv] = a[piv], a[c]
		for r := 0; r < k; r++ {
			if r == c {
				continue
			}
			f := a[r][c] / a[c][c]
			for j := c; j <= k; j++ {
				a[r][j] -= f * a[c][j]
			}
		}
	}
	weights = make([]float64, n)
	intercept = mu[y]
	for p, i := range feat {
		weights[i] = a[p][k] / a[p][p] * sd[y] / sd[i]
		intercept -= weights[i] * mu[i]
	}
	return intercept, weights
}

func assertModelNear(t *testing.T, m *RidgeModel, intercept float64, weights []float64, tol float64) {
	t.Helper()
	if d := math.Abs(m.Intercept - intercept); d > tol*(1+math.Abs(intercept)) {
		t.Errorf("intercept = %v, direct solve %v", m.Intercept, intercept)
	}
	for i, w := range weights {
		if d := math.Abs(m.Weights[i] - w); d > tol*(1+math.Abs(w)) {
			t.Errorf("weight %d = %v, direct solve %v", i, m.Weights[i], w)
		}
	}
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + i))
	}
	return out
}

// TestRidgeMatchesDirectSolve: on a small dense, correlated system the
// CG solution equals the directly eliminated normal equations, with and
// without normalization, in at most one step per unknown (+1 slack for
// rounding).
func TestRidgeMatchesDirectSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 6
	var rows [][]float64
	for i := 0; i < 400; i++ {
		r := make([]float64, n)
		base := rng.NormFloat64()
		for j := 0; j < n-1; j++ {
			r[j] = base*float64(j) + rng.NormFloat64()*float64(j+1) + float64(10*j)
		}
		r[n-1] = 3 + 2*r[0] - r[2] + 0.5*r[4] + rng.NormFloat64()
		rows = append(rows, r)
	}
	sigma := buildSigmaFromRows(rows, names(n))
	for _, normalize := range []bool{true, false} {
		cfg := RidgeConfig{Lambda: 1e-2, MaxIters: 100, Tolerance: 1e-12, Normalize: normalize}
		m := NewRidge(sigma, n-1)
		if err := m.Fit(sigma, cfg); err != nil {
			t.Fatal(err)
		}
		if !m.Converged {
			t.Errorf("normalize=%v: not converged after %d steps", normalize, m.Iterations)
		}
		if unknowns := n - 1; m.Iterations > unknowns+1 {
			t.Errorf("normalize=%v: %d steps for %d unknowns", normalize, m.Iterations, unknowns)
		}
		b0, w := directRidge(rows, n-1, cfg.Lambda, normalize)
		assertModelNear(t, m, b0, w, 1e-8)
	}
}

// nestedOneHotRows builds the shape the Retailer analysis engine fits:
// three categorical groups, each nesting the next (leaf ⊂ mid ⊂ top),
// one-hot encoded, plus one continuous column and the label. Every
// group's columns sum to one and each mid column is a sum of leaf
// columns, so the centred Gram matrix is singular several times over
// and only λ makes the system definite.
func nestedOneHotRows(rng *rand.Rand, rowsN int) (rows [][]float64, cols []Column) {
	const leaves, mids, tops = 12, 4, 2
	for i := 0; i < leaves; i++ {
		cols = append(cols, Column{Attr: "leaf", Category: value.Int(int64(i)), IsCat: true})
	}
	for i := 0; i < mids; i++ {
		cols = append(cols, Column{Attr: "mid", Category: value.Int(int64(i)), IsCat: true})
	}
	for i := 0; i < tops; i++ {
		cols = append(cols, Column{Attr: "top", Category: value.Int(int64(i)), IsCat: true})
	}
	cols = append(cols, Column{Attr: "x"}, Column{Attr: "y"})
	for r := 0; r < rowsN; r++ {
		row := make([]float64, len(cols))
		leaf := rng.Intn(leaves)
		mid := leaf * mids / leaves
		top := mid * tops / mids
		row[leaf], row[leaves+mid], row[leaves+mids+top] = 1, 1, 1
		x := rng.Float64() * 100
		row[len(cols)-2] = x
		row[len(cols)-1] = 5 + float64(leaf) - 2*float64(mid) + 0.1*x + rng.NormFloat64()
		rows = append(rows, row)
	}
	return rows, cols
}

func sigmaWithCols(rows [][]float64, cols []Column) *SigmaMatrix {
	m := buildSigmaFromRows(rows, make([]string, len(cols)))
	m.Cols = cols
	return m
}

// TestRidgeCollinearOneHot: the rank-deficient nested one-hot system at
// the serving default λ = 1e-3 converges to the direct solution within
// unknowns+1 steps, cold and warm, and a model refit to the matrix it
// was just fit to is already optimal.
func TestRidgeCollinearOneHot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows, cols := nestedOneHotRows(rng, 3000)
	y := len(cols) - 1
	sigma := sigmaWithCols(rows, cols)
	cfg := DefaultRidgeConfig()

	m := NewRidge(sigma, y)
	if err := m.Fit(sigma, cfg); err != nil {
		t.Fatal(err)
	}
	if !m.Converged || m.Iterations > y+1 {
		t.Fatalf("cold fit: converged=%v after %d steps, want <= %d", m.Converged, m.Iterations, y+1)
	}
	b0, w := directRidge(rows, y, cfg.Lambda, true)
	assertModelNear(t, m, b0, w, 1e-5)
	if rmse := m.TrainRMSE(sigma); rmse < 0.8 || rmse > 1.2 {
		t.Errorf("train RMSE = %v, want about the unit noise", rmse)
	}

	// A batch-sized delta: 20 more rows out of 3000, refit warm.
	more, _ := nestedOneHotRows(rng, 20)
	rows = append(rows, more...)
	sigma2 := sigmaWithCols(rows, cols)
	if err := m.Fit(sigma2, cfg); err != nil {
		t.Fatal(err)
	}
	if !m.Converged || m.Iterations > y+1 {
		t.Errorf("warm refit: converged=%v after %d steps, want <= %d", m.Converged, m.Iterations, y+1)
	}
	b0, w = directRidge(rows, y, cfg.Lambda, true)
	assertModelNear(t, m, b0, w, 1e-5)

	if err := m.Fit(sigma2, cfg); err != nil {
		t.Fatal(err)
	}
	if !m.Converged || m.Iterations > 1 {
		t.Errorf("refit at the optimum took %d steps", m.Iterations)
	}
}

// TestRidgeWarmStartNeverSlower: on a dense, ill-conditioned system —
// thirty correlated columns on very different scales, where conjugate
// gradient is limited by its convergence rate, not by running out of
// eigen-directions — a warm refit after a batch-sized delta needs no
// more steps than a cold fit of the same matrix, whatever the seed.
func TestRidgeWarmStartNeverSlower(t *testing.T) {
	const n = 31
	gen := func(rng *rand.Rand, cnt int) [][]float64 {
		rows := make([][]float64, cnt)
		for i := range rows {
			r := make([]float64, n)
			f1, f2 := rng.NormFloat64(), rng.NormFloat64()
			for j := 0; j < n-1; j++ {
				r[j] = f1*float64(j%5) + f2*float64(j%3) + rng.NormFloat64()*(0.2+float64(j)/10) + float64(j)
				r[n-1] += r[j] * float64(j%4-1)
			}
			r[n-1] += rng.NormFloat64()
			rows[i] = r
		}
		return rows
	}
	cfg := DefaultRidgeConfig()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := gen(rng, 2000)
		warm := NewRidge(buildSigmaFromRows(rows, names(n)), n-1)
		if err := warm.Fit(buildSigmaFromRows(rows, names(n)), cfg); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, gen(rng, 20)...)
		sigma := buildSigmaFromRows(rows, names(n))
		cold := NewRidge(sigma, n-1)
		if err := cold.Fit(sigma, cfg); err != nil {
			t.Fatal(err)
		}
		if err := warm.Fit(sigma, cfg); err != nil {
			t.Fatal(err)
		}
		if !cold.Converged || !warm.Converged || warm.Iterations > cold.Iterations {
			t.Errorf("seed %d: warm refit %d steps (converged=%v), cold fit %d (converged=%v)",
				seed, warm.Iterations, warm.Converged, cold.Iterations, cold.Converged)
		}
		assertModelNear(t, warm, cold.Intercept, cold.Weights, 1e-4)
	}
}

// TestRidgeMaxItersIsReported: a fit cut short by the cap says so.
func TestRidgeMaxItersIsReported(t *testing.T) {
	rows, cols := nestedOneHotRows(rand.New(rand.NewSource(2)), 500)
	sigma := sigmaWithCols(rows, cols)
	cfg := DefaultRidgeConfig()
	cfg.MaxIters = 2
	m := NewRidge(sigma, len(cols)-1)
	if err := m.Fit(sigma, cfg); err != nil {
		t.Fatal(err)
	}
	if m.Converged || m.Iterations != 2 {
		t.Errorf("capped fit: converged=%v iterations=%d, want false and 2", m.Converged, m.Iterations)
	}
}

// TestRidgeRemap: when the one-hot column set drifts, surviving columns
// keep their weights, new ones start at zero, vanished ones are dropped
// and the label index follows — and the remapped warm start beats a
// cold one.
func TestRidgeRemap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows, cols := nestedOneHotRows(rng, 2000)
	y := len(cols) - 1
	sigma := sigmaWithCols(rows, cols)
	cfg := DefaultRidgeConfig()
	m := NewRidge(sigma, y)
	if err := m.Fit(sigma, cfg); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), m.Weights...)

	// Drop leaf category 3's column and add a never-seen leaf 99 in
	// front of it: same width, different columns.
	drop := 3
	cols2 := append([]Column{}, cols[:drop]...)
	cols2 = append(cols2, Column{Attr: "leaf", Category: value.Int(99), IsCat: true})
	cols2 = append(cols2, cols[drop+1:]...)
	var rows2 [][]float64
	for _, r := range rows {
		if r[drop] == 1 {
			continue // the category died out
		}
		rows2 = append(rows2, r)
	}
	fresh := append([]float64(nil), rows2[0]...)
	for i := range fresh[:12] {
		fresh[i] = 0
	}
	fresh[drop] = 1 // the new category's first row sits in the reused slot
	rows2 = append(rows2, fresh)
	sigma2 := sigmaWithCols(rows2, cols2)

	m.Remap(sigma2, y)
	for i, c := range cols2 {
		want := 0.0
		if i != drop {
			want = before[i]
		}
		if m.Weights[i] != want {
			t.Errorf("column %s: remapped weight %v, want %v", c.Label(), m.Weights[i], want)
		}
	}
	cold := NewRidge(sigma2, y)
	if err := cold.Fit(sigma2, cfg); err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(sigma2, cfg); err != nil {
		t.Fatal(err)
	}
	if m.Iterations > cold.Iterations {
		t.Errorf("remapped warm start took %d steps, cold %d", m.Iterations, cold.Iterations)
	}

	// A grown column set (a column inserted before the label) moves the
	// label index along with the weights.
	cols3 := append(append([]Column{}, cols2[:y]...), Column{Attr: "z"}, cols2[y])
	sigma3 := sigmaWithCols(func() [][]float64 {
		var out [][]float64
		for _, r := range rows2 {
			out = append(out, append(append(append([]float64{}, r[:y]...), rng.Float64()), r[y]))
		}
		return out
	}(), cols3)
	wx := m.Weights[y-1]
	m.Remap(sigma3, y+1)
	if len(m.Weights) != y+2 || m.LabelCol != y+1 || m.Weights[y-1] != wx || m.Weights[y] != 0 {
		t.Errorf("grown remap: %d weights, label %d, x weight %v (want %v), z weight %v", len(m.Weights), m.LabelCol, m.Weights[y-1], wx, m.Weights[y])
	}
	if err := m.Fit(sigma3, cfg); err != nil {
		t.Fatalf("fit after grown remap: %v", err)
	}
}
