package ml

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
)

// buildSigmaFromRows constructs a SigmaMatrix directly from a dense
// data matrix (continuous columns), bypassing the ring machinery — used
// to test the solver in isolation.
func buildSigmaFromRows(rows [][]float64, names []string) *SigmaMatrix {
	n := len(names)
	m := &SigmaMatrix{Cols: make([]Column, n), Sum: make([]float64, n)}
	for i, nm := range names {
		m.Cols[i] = Column{Attr: nm}
	}
	m.Count = float64(len(rows))
	data := make([]float64, n*n)
	for _, r := range rows {
		for i := 0; i < n; i++ {
			m.Sum[i] += r[i]
			for j := 0; j < n; j++ {
				data[i*n+j] += r[i] * r[j]
			}
		}
	}
	// Dense rows: every entry is stored, zeros included.
	var upper []sigmaEntry
	rowLen := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			upper = append(upper, sigmaEntry{int32(i), int32(j), data[i*n+j]})
		}
		rowLen[i] = n
	}
	m.scatter(upper, rowLen)
	return m
}

func TestRidgeRecoversLinearModel(t *testing.T) {
	// y = 3 + 2*x1 - 1.5*x2 exactly; ridge with tiny lambda must recover
	// the coefficients closely.
	rng := rand.New(rand.NewSource(1))
	var rows [][]float64
	for i := 0; i < 500; i++ {
		x1 := rng.Float64()*10 - 5
		x2 := rng.Float64()*4 - 2
		y := 3 + 2*x1 - 1.5*x2
		rows = append(rows, []float64{x1, x2, y})
	}
	sigma := buildSigmaFromRows(rows, []string{"x1", "x2", "y"})
	model := NewRidge(sigma, 2)
	cfg := RidgeConfig{Lambda: 1e-9, MaxIters: 50_000, Tolerance: 1e-12, Normalize: true}
	if err := model.Fit(sigma, cfg); err != nil {
		t.Fatal(err)
	}
	if math.Abs(model.Weights[0]-2) > 1e-3 {
		t.Errorf("θ1 = %v, want 2", model.Weights[0])
	}
	if math.Abs(model.Weights[1]+1.5) > 1e-3 {
		t.Errorf("θ2 = %v, want -1.5", model.Weights[1])
	}
	if math.Abs(model.Intercept-3) > 1e-2 {
		t.Errorf("θ0 = %v, want 3", model.Intercept)
	}
	if rmse := model.TrainRMSE(sigma); rmse > 1e-2 {
		t.Errorf("RMSE = %v on noiseless data", rmse)
	}
}

func TestRidgeWithoutNormalization(t *testing.T) {
	// Well-scaled data must also converge un-normalized.
	rng := rand.New(rand.NewSource(2))
	var rows [][]float64
	for i := 0; i < 200; i++ {
		x := rng.Float64()*2 - 1
		rows = append(rows, []float64{x, 1 + 0.5*x})
	}
	sigma := buildSigmaFromRows(rows, []string{"x", "y"})
	model := NewRidge(sigma, 1)
	cfg := RidgeConfig{Lambda: 1e-9, MaxIters: 50_000, Tolerance: 1e-12}
	if err := model.Fit(sigma, cfg); err != nil {
		t.Fatal(err)
	}
	if math.Abs(model.Weights[0]-0.5) > 1e-3 || math.Abs(model.Intercept-1) > 1e-3 {
		t.Errorf("θ = (%v, %v), want (1, 0.5)", model.Intercept, model.Weights[0])
	}
}

func TestRidgeErrors(t *testing.T) {
	sigma := buildSigmaFromRows([][]float64{{1, 2}}, []string{"x", "y"})
	m := NewRidge(sigma, 1)
	empty := buildSigmaFromRows(nil, []string{"x", "y"})
	if err := m.Fit(empty, DefaultRidgeConfig()); err == nil {
		t.Error("fit on empty training set accepted")
	}
	wrong := NewRidge(sigma, 1)
	wrong.Weights = wrong.Weights[:1]
	if err := wrong.Fit(sigma, DefaultRidgeConfig()); err == nil {
		t.Error("dimension mismatch accepted")
	}
	bad := NewRidge(sigma, 1)
	bad.LabelCol = 5
	if err := bad.Fit(sigma, DefaultRidgeConfig()); err == nil {
		t.Error("label out of range accepted")
	}
}

func TestRidgePredict(t *testing.T) {
	sigma := buildSigmaFromRows([][]float64{{1, 2}, {2, 4}}, []string{"x", "y"})
	m := NewRidge(sigma, 1)
	m.Intercept = 1
	m.Weights[0] = 2
	if got := m.Predict([]float64{3, 0}); got != 7 {
		t.Errorf("Predict = %v, want 7", got)
	}
}

func TestMutualInformationGroundTruths(t *testing.T) {
	k := func(vs ...any) string { return value.T(vs...).Encode() }

	// Perfectly dependent: X == Y over two symbols, 50/50.
	cx := ring.RelVal{k(0): 50, k(1): 50}
	cxy := ring.RelVal{k(0, 0): 50, k(1, 1): 50}
	mi := MutualInformation(100, cx, cx, cxy)
	if math.Abs(mi-math.Log(2)) > 1e-12 {
		t.Errorf("dependent MI = %v, want ln2 = %v", mi, math.Log(2))
	}

	// Independent: uniform product distribution.
	cxyInd := ring.RelVal{k(0, 0): 25, k(0, 1): 25, k(1, 0): 25, k(1, 1): 25}
	if mi := MutualInformation(100, cx, cx, cxyInd); math.Abs(mi) > 1e-12 {
		t.Errorf("independent MI = %v, want 0", mi)
	}

	// Empty database.
	if mi := MutualInformation(0, nil, nil, nil); mi != 0 {
		t.Errorf("empty MI = %v", mi)
	}

	// Entropy of a fair coin.
	if h := SelfInformation(100, cx); math.Abs(h-math.Log(2)) > 1e-12 {
		t.Errorf("H = %v, want ln2", h)
	}
	if h := SelfInformation(100, ring.RelVal{k(0): 100}); h != 0 {
		t.Errorf("deterministic H = %v, want 0", h)
	}
}

func TestMIMatrixFromRelCovar(t *testing.T) {
	// Two identical categorical attributes and one independent one,
	// built through the ring exactly as the view engine would.
	r := ring.NewRelCovarRing(3)
	lifts := []ring.Lift[*ring.RelCovar]{r.LiftCategorical(0), r.LiftCategorical(1), r.LiftCategorical(2)}
	rng := rand.New(rand.NewSource(4))
	total := r.Zero()
	for i := 0; i < 400; i++ {
		x := rng.Intn(2)
		z := rng.Intn(2) // independent of x
		p := r.Mul(r.Mul(lifts[0](nil, value.Int(int64(x))), lifts[1](nil, value.Int(int64(x)))), lifts[2](nil, value.Int(int64(z))))
		total = r.Add(total, p)
	}
	feats := []Feature{
		{Name: "X", Categorical: true, Index: 0},
		{Name: "Y", Categorical: true, Index: 1},
		{Name: "Z", Categorical: true, Index: 2},
	}
	m, err := MIFromRelCovar(total, feats)
	if err != nil {
		t.Fatal(err)
	}
	ixy := m.At(0, 1)
	ixz := m.At(0, 2)
	if ixy < 0.5 { // ~ln2 ≈ 0.693 minus sampling noise
		t.Errorf("I(X,Y) = %v, want near ln2 (identical attrs)", ixy)
	}
	if ixz > 0.05 {
		t.Errorf("I(X,Z) = %v, want near 0 (independent)", ixz)
	}
	if m.At(0, 1) != m.At(1, 0) {
		t.Error("MI matrix not symmetric")
	}
	if m.At(0, 0) < ixy {
		t.Error("diagonal entropy below pairwise MI")
	}
	if m.IndexOf("Z") != 2 || m.IndexOf("W") != -1 {
		t.Error("IndexOf wrong")
	}
}

func TestMIFromRelCovarErrors(t *testing.T) {
	if _, err := MIFromRelCovar(nil, nil); err == nil {
		t.Error("nil payload accepted")
	}
	r := ring.NewRelCovarRing(1)
	if _, err := MIFromRelCovar(r.One(), []Feature{{Name: "x", Categorical: false, Index: 0}}); err == nil {
		t.Error("continuous feature accepted for MI")
	}
}

func TestSelectFeatures(t *testing.T) {
	m := &MIMatrix{
		Attrs: []string{"label", "a", "b", "c"},
		n:     4,
		Data: []float64{
			1.0, 0.5, 0.05, 0.3,
			0.5, 1.0, 0.1, 0.1,
			0.05, 0.1, 1.0, 0.1,
			0.3, 0.1, 0.1, 1.0,
		},
	}
	ranking, selected, err := SelectFeatures(m, "label", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking) != 3 || ranking[0].Attr != "a" || ranking[1].Attr != "c" || ranking[2].Attr != "b" {
		t.Errorf("ranking = %v", ranking)
	}
	if len(selected) != 2 || selected[0] != "a" || selected[1] != "c" {
		t.Errorf("selected = %v", selected)
	}
	if _, _, err := SelectFeatures(m, "missing", 0.2); err == nil {
		t.Error("missing label accepted")
	}
}

func TestChowLiuChainStructure(t *testing.T) {
	// MI matrix of a chain A—B—C—D with decaying dependence: the tree
	// must recover the chain.
	m := &MIMatrix{
		Attrs: []string{"A", "B", "C", "D"},
		n:     4,
		Data: []float64{
			2.0, 0.9, 0.4, 0.2,
			0.9, 2.0, 0.8, 0.35,
			0.4, 0.8, 2.0, 0.7,
			0.2, 0.35, 0.7, 2.0,
		},
	}
	tree, err := ChowLiu(m, "A")
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != "A" || len(tree.Edges) != 3 {
		t.Fatalf("tree = %+v", tree)
	}
	want := map[string]string{"B": "A", "C": "B", "D": "C"}
	for _, e := range tree.Edges {
		if want[e.Child] != e.Parent {
			t.Errorf("edge %s -> %s, want parent %s", e.Parent, e.Child, want[e.Child])
		}
	}
	if math.Abs(tree.TotalMI-(0.9+0.8+0.7)) > 1e-12 {
		t.Errorf("TotalMI = %v", tree.TotalMI)
	}
	if kids := tree.Children("A"); len(kids) != 1 || kids[0] != "B" {
		t.Errorf("Children(A) = %v", kids)
	}
	s := tree.String()
	if s == "" {
		t.Error("empty rendering")
	}
}

func TestChowLiuSingleAttributeAndErrors(t *testing.T) {
	m := &MIMatrix{Attrs: []string{"only"}, n: 1, Data: []float64{1}}
	tree, err := ChowLiu(m, "only")
	if err != nil || len(tree.Edges) != 0 {
		t.Errorf("singleton tree = %+v, %v", tree, err)
	}
	if _, err := ChowLiu(m, "missing"); err == nil {
		t.Error("missing root accepted")
	}
}

func TestChowLiuDeterministicTieBreak(t *testing.T) {
	// All off-diagonal MI equal: edges must still come out
	// deterministically (by attribute name).
	m := &MIMatrix{
		Attrs: []string{"c", "a", "b"},
		n:     3,
		Data: []float64{
			1, 0.5, 0.5,
			0.5, 1, 0.5,
			0.5, 0.5, 1,
		},
	}
	t1, err := ChowLiu(m, "c")
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := ChowLiu(m, "c")
	for i := range t1.Edges {
		if t1.Edges[i] != t2.Edges[i] {
			t.Fatalf("non-deterministic: %v vs %v", t1.Edges, t2.Edges)
		}
	}
}

// TestChowLiuIsAFunctionOfTheData: a published tree must not depend on
// Go's map iteration order. Y is a copy of X, so I(W,X) and I(W,Y), and
// I(Z,X) and I(Z,Y), are mathematically equal; summed in sorted key
// order they are bit-equal, the name tie-breaks fire, and the same
// payload gives the same matrix bits and the same edges every time.
func TestChowLiuIsAFunctionOfTheData(t *testing.T) {
	r := ring.NewRelCovarRing(4)
	rng := rand.New(rand.NewSource(9))
	total := r.Zero()
	for i := 0; i < 2000; i++ {
		w := rng.Intn(5)
		x := (w + rng.Intn(3)) % 5
		z := (x + rng.Intn(4)) % 5
		p := r.One()
		for f, v := range []int{w, x, x, z} {
			p = r.Mul(p, r.LiftCategorical(f)(nil, value.Int(int64(v))))
		}
		total = r.Add(total, p)
	}
	feats := []Feature{
		{Name: "W", Categorical: true, Index: 0},
		{Name: "X", Categorical: true, Index: 1},
		{Name: "Y", Categorical: true, Index: 2},
		{Name: "Z", Categorical: true, Index: 3},
	}
	var wantBits []uint64
	var wantEdges []ChowLiuEdge
	for run := 0; run < 50; run++ {
		m, err := MIFromRelCovar(total, feats)
		if err != nil {
			t.Fatal(err)
		}
		if m.At(0, 1) != m.At(0, 2) || m.At(3, 1) != m.At(3, 2) {
			t.Fatalf("run %d: equal pairs differ: I(W,X)=%v I(W,Y)=%v I(Z,X)=%v I(Z,Y)=%v", run, m.At(0, 1), m.At(0, 2), m.At(3, 1), m.At(3, 2))
		}
		tree, err := ChowLiu(m, "W")
		if err != nil {
			t.Fatal(err)
		}
		bits := make([]uint64, len(m.Data))
		for i, v := range m.Data {
			bits[i] = math.Float64bits(v)
		}
		if run == 0 {
			wantBits, wantEdges = bits, tree.Edges
			// W's best neighbours tie (X, Y): the name-smaller child goes
			// first; Y then hangs off its copy, and Z's tie between the
			// parents X and Y goes to X.
			if got := tree.String(); got != "W\n  X\n    Y\n    Z\n" {
				t.Fatalf("tree:\n%s", got)
			}
			continue
		}
		for i := range bits {
			if bits[i] != wantBits[i] {
				t.Fatalf("run %d: MI matrix entry %d is %x, was %x on run 0", run, i, bits[i], wantBits[i])
			}
		}
		for i := range wantEdges {
			if tree.Edges[i] != wantEdges[i] {
				t.Fatalf("run %d: edges %v, were %v on run 0", run, tree.Edges, wantEdges)
			}
		}
	}
}
