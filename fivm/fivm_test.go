package fivm_test

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/fivm"
	"repro/internal/daemon"
	"repro/internal/ml"
	"repro/internal/ring"
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
	an := open[*fivm.Engine[*ring.RelCovar]](t, toyConfig())
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	p := an.Payload()
	if p == nil || p.Count().Scalar() != 3 {
		t.Fatalf("payload count = %v", p)
	}
	m := publish(an)
	sigma, err := m.Covar()
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
	if len(m.Features) != 3 {
		t.Error("model features")
	}
	if an.Tree() == nil {
		t.Error("tree accessor")
	}
}

// publish publishes an's current state as an AnalysisModel.
func publish(an *fivm.Engine[*ring.RelCovar]) *fivm.AnalysisModel {
	return an.PublishModel(nil).(*fivm.AnalysisModel)
}

func TestAnalysisRidge(t *testing.T) {
	cfg := toyConfig()
	cfg.Label = "D"
	an := open[*fivm.Engine[*ring.RelCovar]](t, cfg)
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	model, sigma, err := publish(an).Fit()
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || sigma == nil {
		t.Fatal("nil results")
	}
	// A categorical label must be rejected.
	cfg.Label = "C"
	if _, err := fivm.Open(cfg); err == nil {
		t.Error("categorical label accepted")
	}
}

// TestOnFitReportsWhetherModelsFit: OnFit registers an observer only
// on an analysis engine with a label, says so, and the observer then
// sees each published model's fit once, however often it is read.
func TestOnFitReportsWhetherModelsFit(t *testing.T) {
	noFit := func(*ml.RidgeModel, time.Duration) { t.Error("observer of an engine that fits nothing called") }
	count := open[fivm.AnyEngine](t, fivm.Config{Relations: toyConfig().Relations, Query: "SELECT SUM(1) FROM R NATURAL JOIN S"})
	unlabelled := open[fivm.AnyEngine](t, toyConfig())
	for _, e := range []fivm.AnyEngine{count, unlabelled} {
		if fivm.OnFit(e, noFit) {
			t.Errorf("%s engine without a label: OnFit reports that its models fit", e.Kind())
		}
	}
	if err := unlabelled.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	if _, err := unlabelled.PublishModel(nil).(*fivm.AnalysisModel).Covar(); err != nil {
		t.Fatal(err)
	}
	cfg := toyConfig()
	cfg.Label = "D"
	eng := open[fivm.AnyEngine](t, cfg)
	fits := 0
	if !fivm.OnFit(eng, func(m *ml.RidgeModel, took time.Duration) {
		if m == nil || took < 0 {
			t.Errorf("observed fit %v after %v", m, took)
		}
		fits++
	}) {
		t.Fatal("labelled analysis engine: OnFit reports that its models do not fit")
	}
	if err := eng.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 2; v++ {
		m := eng.PublishModel(nil).(*fivm.AnalysisModel)
		for r := 0; r < 3; r++ {
			if _, _, err := m.Fit(); err != nil {
				t.Fatal(err)
			}
		}
		if fits != v {
			t.Errorf("after %d models read 3 times each: %d fits observed", v, fits)
		}
	}
}

// TestAnalysisFitIsAFunctionOfThePayload: every version of a stream is
// published and fitted in turn, so each fit could lean on the engine's
// earlier ones; the last model must still render byte for byte what a
// fresh engine renders from that model's partial, having fitted nothing
// before.
func TestAnalysisFitIsAFunctionOfThePayload(t *testing.T) {
	const rows, batches, batch = 5_000, 20, 100
	cfg, data, err := daemon.BuildEngineConfig("retailer", rows, true, "", "", "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	eng, fresh := open[fivm.AnyEngine](t, cfg), open[fivm.AnyEngine](t, cfg)
	if err := eng.Init(data); err != nil {
		t.Fatal(err)
	}
	db, _ := retailer(rows, 0)
	ups := inventoryStream(t, db, batches*batch, 0.2)
	var last fivm.Model
	for i := 0; i < len(ups); i += batch {
		if err := eng.Apply(ups[i : i+batch]); err != nil {
			t.Fatal(err)
		}
		last = eng.PublishModel(last)
		if _, _, err := last.(*fivm.AnalysisModel).Fit(); err != nil {
			t.Fatalf("batch %d: %v", i/batch, err)
		}
	}
	var partial bytes.Buffer
	if err := last.WritePartial(&partial); err != nil {
		t.Fatal(err)
	}
	merged, err := fresh.MergePartials([]io.Reader{&partial})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := modelJSON(last), modelJSON(merged); got != want {
		t.Errorf("the stream's last model renders\n%s\na fresh engine's over its partial\n%s", got, want)
	}
}

// readMI reads the MI matrix off the Σ of a model of an.
func readMI(an *fivm.Engine[*ring.RelCovar]) (*ml.MIMatrix, error) {
	m := publish(an)
	sigma, err := m.Covar()
	if err != nil {
		return nil, err
	}
	return ml.MIFromSigma(sigma, m.Features)
}

func TestAnalysisMIAndApps(t *testing.T) {
	cfg := toyConfig()
	cfg.Features = []fivm.FeatureSpec{
		{Attr: "B", Categorical: true},
		{Attr: "C", Categorical: true},
		{Attr: "D", Categorical: true},
	}
	an := open[*fivm.Engine[*ring.RelCovar]](t, cfg)
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	mi, err := readMI(an)
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
	an := open[*fivm.Engine[*ring.RelCovar]](t, toyConfig()) // B and D continuous
	if err := an.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	if _, err := readMI(an); err == nil {
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
	an := open[*fivm.Engine[*ring.RelCovar]](t, toyConfig())
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
	eng := open[*fivm.Engine[int64]](t, fivm.Config{Relations: openRels(), Query: "SELECT SUM(1) FROM R NATURAL JOIN S"})
	if err := eng.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	if got := eng.Payload(); got != 3 {
		t.Errorf("count = %d", got)
	}

	// Grouped count.
	engG := open[*fivm.Engine[int64]](t, fivm.Config{Relations: openRels(), Query: "SELECT A, SUM(1) FROM R NATURAL JOIN S GROUP BY A"})
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
	eng := open[*fivm.Engine[float64]](t, float("SELECT SUM(B * D) FROM R NATURAL JOIN S"))
	if err := eng.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	// SUM(B*D) over {(1,_,1),(1,_,3),(2,_,2)} = 1+3+4 = 8.
	if got := eng.Payload(); got != 8 {
		t.Errorf("SUM(B*D) = %v, want 8", got)
	}

	// sq() factor function.
	eng2 := open[*fivm.Engine[float64]](t, float("SELECT SUM(sq(D)) FROM S"))
	if err := eng2.Init(map[string][]value.Tuple{"S": toyData()["S"]}); err != nil {
		t.Fatal(err)
	}
	if got := eng2.Payload(); got != 14 { // 1+9+4
		t.Errorf("SUM(D*D) = %v, want 14", got)
	}

	// Constant scaling folds into a lift.
	eng3 := open[*fivm.Engine[float64]](t, float("SELECT SUM(2 * D) FROM S"))
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
	// then D), so the statistics its published model holds are permuted
	// back.
	eng := open[*fivm.Engine[*ring.RangedCovar]](t, fivm.Config{Kind: fivm.KindCovar, Relations: openRels(), Attrs: []string{"D", "B"}})
	if err := eng.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	p := eng.PublishModel(nil).(*fivm.CovarModel).Payload
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
	an := open[*fivm.Engine[*ring.RelCovar]](t, toyConfig())
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

	restored := open[*fivm.Engine[*ring.RelCovar]](t, toyConfig())
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
