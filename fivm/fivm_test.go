package fivm_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/fivm"
	"repro/internal/ml"
	"repro/internal/value"
	"repro/internal/view"
)

func toyConfig() fivm.Config {
	return fivm.Config{
		Relations: []fivm.RelationSpec{
			{Name: "R", Attrs: []string{"A", "B"}},
			{Name: "S", Attrs: []string{"A", "C", "D"}},
		},
		Features: []fivm.FeatureSpec{
			{Attr: "B"},
			{Attr: "C", Categorical: true},
			{Attr: "D"},
		},
	}
}

// open builds the engine cfg describes and asserts its concrete type.
func open[E fivm.AnyEngine](t testing.TB, cfg fivm.Config) E {
	t.Helper()
	eng, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng.(E)
}

func toyData() map[string][]value.Tuple {
	return map[string][]value.Tuple{
		"R": {value.T("a1", 1), value.T("a2", 2)},
		"S": {value.T("a1", 1, 1), value.T("a1", 2, 3), value.T("a2", 2, 2)},
	}
}

func TestAnalysisEndToEnd(t *testing.T) {
	an := open[*fivm.Analysis](t, toyConfig())
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	p := an.Payload()
	if p == nil || p.Count().Scalar() != 3 {
		t.Fatalf("payload count = %v", p)
	}
	sigma, err := an.Covar()
	if err != nil {
		t.Fatal(err)
	}
	// Columns: B, C=1, C=2, D.
	if sigma.Dim() != 4 {
		t.Fatalf("sigma dim = %d", sigma.Dim())
	}
	if sigma.Count != 3 {
		t.Errorf("sigma count = %v", sigma.Count)
	}
	ib := sigma.ColumnsOf("B")[0]
	id := sigma.ColumnsOf("D")[0]
	if sigma.Sum[ib] != 4 || sigma.Sum[id] != 6 {
		t.Errorf("sums = %v, %v", sigma.Sum[ib], sigma.Sum[id])
	}
	if sigma.At(ib, id) != 8 {
		t.Errorf("Q(B,D) = %v, want 8", sigma.At(ib, id))
	}

	// Maintenance through the facade.
	if err := an.Apply([]view.Update{{Rel: "R", Tuple: value.T("a1", 1), Mult: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := an.Payload().Count().Scalar(); got != 5 {
		t.Errorf("count after insert = %v, want 5", got)
	}
	if err := an.Apply([]view.Update{{Rel: "R", Tuple: value.T("a1", 1), Mult: -1}}); err != nil {
		t.Fatal(err)
	}
	if got := an.Payload().Count().Scalar(); got != 3 {
		t.Errorf("count after delete = %v, want 3", got)
	}
	if an.Stats().Updates == 0 {
		t.Error("stats not accumulating")
	}
	if len(an.Features()) != 3 {
		t.Error("features accessor")
	}
	if an.Tree() == nil {
		t.Error("tree accessor")
	}
}

func TestAnalysisRidge(t *testing.T) {
	an := open[*fivm.Analysis](t, toyConfig())
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	model, sigma, err := an.Ridge("D", nil, ml.DefaultRidgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || sigma == nil {
		t.Fatal("nil results")
	}
	// Warm-start path reuses the model.
	model2, _, err := an.Ridge("D", model, ml.DefaultRidgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if model2 != model {
		t.Error("warm start rebuilt the model despite stable columns")
	}
	// A categorical label must be rejected.
	if _, _, err := an.Ridge("C", nil, ml.DefaultRidgeConfig()); err == nil {
		t.Error("categorical label accepted")
	}
}

func TestAnalysisMIAndApps(t *testing.T) {
	cfg := toyConfig()
	cfg.Features = []fivm.FeatureSpec{
		{Attr: "B", Categorical: true},
		{Attr: "C", Categorical: true},
		{Attr: "D", Categorical: true},
	}
	an := open[*fivm.Analysis](t, cfg)
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	mi, err := an.MI()
	if err != nil {
		t.Fatal(err)
	}
	if mi.Dim() != 3 {
		t.Fatalf("MI dim = %d", mi.Dim())
	}
	// On the toy join, B and C are strongly dependent (both determined
	// by A up to one collision).
	if mi.At(0, 1) <= 0 {
		t.Errorf("I(B,C) = %v, want > 0", mi.At(0, 1))
	}
	ranking, _, err := ml.SelectFeatures(mi, "D", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking) != 2 {
		t.Errorf("ranking = %v", ranking)
	}
	tree, err := ml.ChowLiu(mi, "B")
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != "B" || len(tree.Edges) != 2 {
		t.Errorf("tree = %+v", tree)
	}
}

func TestAnalysisMIRejectsContinuous(t *testing.T) {
	an := open[*fivm.Analysis](t, toyConfig()) // B and D continuous
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	if _, err := an.MI(); err == nil {
		t.Error("MI over continuous features accepted")
	}
}

func TestAnalysisOpenErrors(t *testing.T) {
	base := toyConfig()
	base.Kind = fivm.KindAnalysis

	c := base
	c.Features = nil
	if _, err := fivm.Open(c); err == nil {
		t.Error("no features accepted")
	}

	c = base
	c.Relations = nil
	if _, err := fivm.Open(c); err == nil {
		t.Error("no relations accepted")
	}

	c = base
	c.Features = []fivm.FeatureSpec{{Attr: "Z"}}
	if _, err := fivm.Open(c); err == nil {
		t.Error("unknown feature accepted")
	}

	c = base
	c.Features = []fivm.FeatureSpec{{Attr: "B"}, {Attr: "B"}}
	if _, err := fivm.Open(c); err == nil {
		t.Error("duplicate feature accepted")
	}
}

func TestAnalysisM3Rendering(t *testing.T) {
	an := open[*fivm.Analysis](t, toyConfig())
	vt := an.ViewTree()
	if !strings.Contains(vt, "V@A[]") {
		t.Errorf("ViewTree missing root:\n%s", vt)
	}
	code := an.M3()
	for _, frag := range []string{"DECLARE MAP", "RingCofactor<double, 3>", "[lift<0>"} {
		if !strings.Contains(code, frag) {
			t.Errorf("M3 missing %q:\n%s", frag, code)
		}
	}
}

func TestCountEngine(t *testing.T) {
	eng := open[*fivm.CountEngine](t, fivm.Config{Relations: openRels(), Query: "SELECT SUM(1) FROM R NATURAL JOIN S"})
	if err := eng.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	if got := eng.Payload(); got != 3 {
		t.Errorf("count = %d", got)
	}

	// Grouped count.
	engG := open[*fivm.CountEngine](t, fivm.Config{Relations: openRels(), Query: "SELECT A, SUM(1) FROM R NATURAL JOIN S GROUP BY A"})
	if err := engG.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	if got, _ := engG.Result().Get(value.T("a1")); got != 2 {
		t.Errorf("count(a1) = %d", got)
	}

	// Rejections.
	if _, err := fivm.Open(fivm.Config{Kind: fivm.KindCount, Relations: openRels(), Query: "SELECT SUM(B) FROM R"}); err == nil {
		t.Error("non-count query accepted by count engine")
	}
}

func TestFloatEngine(t *testing.T) {
	float := func(query string) fivm.Config {
		return fivm.Config{Kind: fivm.KindFloat, Relations: openRels(), Query: query}
	}
	eng := open[*fivm.FloatEngine](t, float("SELECT SUM(B * D) FROM R NATURAL JOIN S"))
	if err := eng.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	// SUM(B*D) over {(1,_,1),(1,_,3),(2,_,2)} = 1+3+4 = 8.
	if got := eng.Payload(); got != 8 {
		t.Errorf("SUM(B*D) = %v, want 8", got)
	}

	// sq() factor function.
	eng2 := open[*fivm.FloatEngine](t, float("SELECT SUM(sq(D)) FROM S"))
	if err := eng2.Init(map[string][]value.Tuple{"S": toyData()["S"]}); err != nil {
		t.Fatal(err)
	}
	if got := eng2.Payload(); got != 14 { // 1+9+4
		t.Errorf("SUM(D*D) = %v, want 14", got)
	}

	// Constant scaling folds into a lift.
	eng3 := open[*fivm.FloatEngine](t, float("SELECT SUM(2 * D) FROM S"))
	if err := eng3.Init(map[string][]value.Tuple{"S": toyData()["S"]}); err != nil {
		t.Fatal(err)
	}
	if got := eng3.Payload(); got != 12 {
		t.Errorf("SUM(2*D) = %v, want 12", got)
	}

	// Duplicate attribute factors are rejected with guidance.
	if _, err := fivm.Open(float("SELECT SUM(D * D) FROM S")); err == nil {
		t.Error("SUM(D*D) accepted; must demand sq(D)")
	}
	// Unknown function.
	if _, err := fivm.Open(float("SELECT SUM(cube(D)) FROM S")); err == nil {
		t.Error("unknown factor function accepted")
	}
}

func TestCovarEngineFacade(t *testing.T) {
	// D before B: the engine's lift order is the tree's post-order (B,
	// then D), so the statistics it hands out are permuted back.
	eng := open[*fivm.CovarEngine](t, fivm.Config{Kind: fivm.KindCovar, Relations: openRels(), Attrs: []string{"D", "B"}})
	if err := eng.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	p, err := eng.Covar()
	if err != nil {
		t.Fatal(err)
	}
	if p.Count() != 3 || p.Sum(0) != 6 || p.Sum(1) != 4 {
		t.Errorf("payload = %v", p)
	}
	if math.Abs(p.Prod(1, 0)-8) > 1e-12 {
		t.Errorf("Q(B,D) = %v", p.Prod(1, 0))
	}
	if got := eng.Payload(); got.Sum(0) != 4 || got.Sum(1) != 6 {
		t.Errorf("ranged payload = %v, want B's sum at lift index 0", got)
	}
	if !strings.Contains(eng.M3(), "RingCofactor<double, idx, cnt>") {
		t.Errorf("M3 does not name the ranged ring:\n%s", eng.M3())
	}
}

func TestAnalysisSnapshotRoundTrip(t *testing.T) {
	an := open[*fivm.Analysis](t, toyConfig())
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	if err := an.Apply([]view.Update{{Rel: "R", Tuple: value.T("a3", 7), Mult: 1}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := an.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored := open[*fivm.Analysis](t, toyConfig())
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !restored.Payload().Equal(an.Payload()) {
		t.Errorf("restored payload %v != original %v", restored.Payload(), an.Payload())
	}
	// Restored engines keep maintaining in lockstep.
	up := []view.Update{{Rel: "S", Tuple: value.T("a3", 9, 9), Mult: 1}}
	if err := an.Apply(up); err != nil {
		t.Fatal(err)
	}
	if err := restored.Apply(up); err != nil {
		t.Fatal(err)
	}
	if !restored.Payload().Equal(an.Payload()) {
		t.Error("restored engine diverged after further updates")
	}
}
