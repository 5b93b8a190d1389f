package fivm_test

import (
	"math"
	"strings"
	"testing"

	"repro/fivm"
	"repro/internal/daemon"
	"repro/internal/ml"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
)

func openRels() []fivm.RelationSpec {
	return []fivm.RelationSpec{
		{Name: "R", Attrs: []string{"A", "B"}},
		{Name: "S", Attrs: []string{"A", "C", "D"}},
	}
}

// Open infers the engine kind from which config fields are set, and the
// returned AnyEngine drives the same lifecycle regardless of kind.
func TestOpenKindInference(t *testing.T) {
	cases := []struct {
		name string
		cfg  fivm.Config
		want fivm.Kind
	}{
		{"count from SUM(1)", fivm.Config{Relations: openRels(), Query: "SELECT SUM(1) FROM R NATURAL JOIN S"}, fivm.KindCount},
		{"float from SUM expr", fivm.Config{Relations: openRels(), Query: "SELECT SUM(B * D) FROM R NATURAL JOIN S"}, fivm.KindFloat},
		{"analysis from features", fivm.Config{Relations: openRels(), Features: []fivm.FeatureSpec{{Attr: "B"}, {Attr: "C", Categorical: true}}}, fivm.KindAnalysis},
		{"covar from attrs", fivm.Config{Relations: openRels(), Attrs: []string{"B", "D"}}, fivm.KindCovar},
		{"covar forced by kind", fivm.Config{Kind: fivm.KindCovar, Relations: openRels(), Attrs: []string{"D", "B"}}, fivm.KindCovar},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, err := fivm.Open(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Kind() != c.want {
				t.Fatalf("kind = %s, want %s", eng.Kind(), c.want)
			}
			// The shared lifecycle works identically on every kind.
			if err := eng.Init(toyData()); err != nil {
				t.Fatal(err)
			}
			if err := eng.Apply([]view.Update{{Rel: "R", Tuple: value.T("a1", 5), Mult: 1}}); err != nil {
				t.Fatal(err)
			}
			d, err := eng.BuildDelta("R", []view.Update{{Rel: "R", Tuple: value.T("a9", 9), Mult: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.ApplyBuilt("R", d); err != nil {
				t.Fatal(err)
			}
			if got := eng.RelationNames(); len(got) != 2 {
				t.Fatalf("RelationNames = %v", got)
			}
			if n, ok := eng.Arity("S"); !ok || n != 3 {
				t.Fatalf("Arity(S) = %d, %v", n, ok)
			}
			if eng.Stats().Updates == 0 {
				t.Fatal("stats not accumulating")
			}
			if eng.ViewTree() == "" || eng.M3() == "" {
				t.Fatal("empty renderings")
			}
			m := eng.PublishModel(nil)
			if m.Kind() != c.want {
				t.Fatalf("model kind = %s, want %s", m.Kind(), c.want)
			}
		})
	}
}

// isA reports whether e's concrete type is E.
func isA[E fivm.AnyEngine](e fivm.AnyEngine) bool {
	_, ok := e.(E)
	return ok
}

// TestOpenReturnsDocumentedTypes pins, for every kind, the concrete
// type Open returns: the one callers type-assert to for typed reads.
func TestOpenReturnsDocumentedTypes(t *testing.T) {
	cases := map[fivm.Kind]struct {
		cfg fivm.Config
		is  func(fivm.AnyEngine) bool
	}{
		fivm.KindCount:    {fivm.Config{Query: "SELECT SUM(1) FROM R NATURAL JOIN S"}, isA[*fivm.Engine[int64]]},
		fivm.KindFloat:    {fivm.Config{Query: "SELECT SUM(B * D) FROM R NATURAL JOIN S"}, isA[*fivm.Engine[float64]]},
		fivm.KindCovar:    {fivm.Config{Attrs: []string{"B", "D"}}, isA[*fivm.Engine[*ring.RangedCovar]]},
		fivm.KindAnalysis: {fivm.Config{Features: []fivm.FeatureSpec{{Attr: "B"}, {Attr: "D"}}}, isA[*fivm.Engine[*ring.RelCovar]]},
	}
	for _, k := range fivm.Kinds() {
		c, ok := cases[k]
		if !ok {
			t.Errorf("kind %s has no documented type here", k)
			continue
		}
		c.cfg.Relations = openRels()
		eng, err := fivm.Open(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Kind() != k || !c.is(eng) {
			t.Errorf("%s: Open returned a %s engine of type %T", k, eng.Kind(), eng)
		}
	}
}

// Bare Relations describe no workload: Open refuses them, naming the
// fields that would, and the daemon's -relations alone reaches the same
// refusal. "join" is no longer a kind.
func TestOpenRefusesBareRelations(t *testing.T) {
	_, err := fivm.Open(fivm.Config{Relations: openRels()})
	if err == nil {
		t.Fatal("bare relations accepted")
	}
	for _, field := range []string{"Query", "Features", "Attrs"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("err = %v, want it to name %s", err, field)
		}
	}
	cfg, _, derr := daemon.BuildEngineConfig("", 0, false, "", "", "R:A,B;S:A,C,D", "", "", "")
	if derr != nil {
		t.Fatal(derr)
	}
	if _, oerr := fivm.Open(cfg); oerr == nil || oerr.Error() != err.Error() {
		t.Errorf("-relations alone: err = %v, want %v", oerr, err)
	}
	if _, err := fivm.Open(fivm.Config{Kind: "join", Relations: openRels()}); err == nil || !strings.Contains(err.Error(), "unknown engine kind") {
		t.Errorf(`Kind "join": err = %v, want unknown engine kind`, err)
	}
}

// A bin width is 0 (no binning) or a finite positive number; Open and
// the daemon's feature parser refuse anything else rather than reading
// it as continuous or putting every value in one bin.
func TestBinWidthMustBeFinitePositive(t *testing.T) {
	for w, ok := range map[float64]bool{0: true, 2.5: true, -1: false, math.NaN(): false, math.Inf(1): false, math.Inf(-1): false} {
		feats := []fivm.FeatureSpec{{Attr: "B", BinWidth: w}, {Attr: "D"}}
		if _, err := fivm.Open(fivm.Config{Relations: openRels(), Features: feats}); (err == nil) != ok {
			t.Errorf("Open with BinWidth %v: err = %v, want ok=%v", w, err, ok)
		}
	}
	for w, ok := range map[string]bool{"2.5": true, "0": false, "-1": false, "NaN": false, "Inf": false, "-Inf": false} {
		if _, err := daemon.ParseFeatures("B:bin=" + w + ",D"); (err == nil) != ok {
			t.Errorf("ParseFeatures(B:bin=%s): err = %v, want ok=%v", w, err, ok)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := fivm.Open(fivm.Config{}); err == nil {
		t.Error("no relations accepted")
	}
	if _, err := fivm.Open(fivm.Config{Kind: fivm.KindCount, Relations: openRels()}); err == nil {
		t.Error("count kind without query accepted")
	}
	if _, err := fivm.Open(fivm.Config{Kind: "bogus", Relations: openRels()}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := fivm.Open(fivm.Config{Relations: openRels(), Query: "SELECT nope"}); err == nil {
		t.Error("unparsable query accepted")
	}
	// Ambiguous configs are rejected, not resolved by precedence.
	_, err := fivm.Open(fivm.Config{
		Relations: openRels(),
		Features:  []fivm.FeatureSpec{{Attr: "B"}},
		Attrs:     []string{"B", "D"},
	})
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("Features+Attrs: err = %v, want ambiguity rejection", err)
	}
	// A label on a non-analysis engine is a misconfiguration, not a
	// silently ignored field.
	_, err = fivm.Open(fivm.Config{
		Relations: openRels(),
		Query:     "SELECT SUM(B) FROM R NATURAL JOIN S",
		Label:     "B",
	})
	if err == nil || !strings.Contains(err.Error(), "Label") {
		t.Errorf("float+Label: err = %v, want label rejection", err)
	}
	// An explicit Kind must not silently drop a workload field meant
	// for a different engine.
	_, err = fivm.Open(fivm.Config{
		Kind:      fivm.KindCovar,
		Relations: openRels(),
		Query:     "SELECT SUM(1) FROM R NATURAL JOIN S",
	})
	if err == nil || !strings.Contains(err.Error(), "not consumed") {
		t.Errorf("covar+Query: err = %v, want unconsumed-field rejection", err)
	}
	// A Ridge config without a Label is never consumed.
	_, err = fivm.Open(fivm.Config{
		Relations: openRels(),
		Attrs:     []string{"B", "D"},
		Ridge:     ml.RidgeConfig{Lambda: 0.5},
	})
	if err == nil || !strings.Contains(err.Error(), "Ridge") {
		t.Errorf("covar+Ridge: err = %v, want ridge rejection", err)
	}
}

// ApplyBuilt must reject deltas of a different engine's payload type
// instead of panicking in the view layer.
func TestApplyBuiltRejectsForeignDelta(t *testing.T) {
	count, err := fivm.Open(fivm.Config{Relations: openRels(), Query: "SELECT SUM(1) FROM R NATURAL JOIN S"})
	if err != nil {
		t.Fatal(err)
	}
	flt, err := fivm.Open(fivm.Config{Relations: openRels(), Query: "SELECT SUM(B) FROM R NATURAL JOIN S"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := count.BuildDelta("R", []view.Update{{Rel: "R", Tuple: value.T("a1", 1), Mult: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := flt.ApplyBuilt("R", d); err == nil {
		t.Fatal("float engine accepted a Z-ring delta")
	}
}

// A GROUP BY attribute missing from the joined schema is rejected by
// Parse against the catalog Open builds from Relations, for the count
// and float kinds alike, before any view tree is built.
func TestEnginesRejectUnknownGroupBy(t *testing.T) {
	for _, q := range []string{
		"SELECT Z, SUM(1) FROM R GROUP BY Z",
		"SELECT Z, SUM(B) FROM R GROUP BY Z",
	} {
		_, err := fivm.Open(fivm.Config{Relations: openRels(), Query: q})
		if err == nil || !strings.Contains(err.Error(), "group-by attribute Z not in any joined relation") {
			t.Fatalf("%s: err = %v, want Parse's GROUP BY validation failure", q, err)
		}
	}
}

// Open's contract, generated from its kinds table: every kind rejects
// each kind-specific Config field it does not consume. A new kind needs
// no new case here; a new field needs one setter.
func TestOpenRejectsUnconsumedFields(t *testing.T) {
	setters := map[string]func(*fivm.Config){
		"Query":    func(c *fivm.Config) { c.Query = "SELECT SUM(1) FROM R NATURAL JOIN S" },
		"Features": func(c *fivm.Config) { c.Features = []fivm.FeatureSpec{{Attr: "B"}} },
		"Attrs":    func(c *fivm.Config) { c.Attrs = []string{"B"} },
		"Label":    func(c *fivm.Config) { c.Label = "B" },
		"Ridge":    func(c *fivm.Config) { c.Ridge = ml.RidgeConfig{Lambda: 0.5} },
	}
	for kind, uses := range fivm.KindFields() {
		for field, used := range uses {
			set, ok := setters[field]
			if !ok {
				t.Fatalf("no setter for Config field %s", field)
			}
			if used {
				continue
			}
			cfg := fivm.Config{Kind: kind, Relations: openRels()}
			set(&cfg)
			if _, err := fivm.Open(cfg); err == nil || !strings.Contains(err.Error(), field+" not consumed") {
				t.Errorf("%s engine with %s: err = %v, want %q", kind, field, err, field+" not consumed")
			}
		}
	}
}

// A tuple of the wrong arity is an error naming the relation and both
// arities, on every kind and every entry point — never a panic — and a
// batch holding one applies nothing.
func TestWrongArityIsAnError(t *testing.T) {
	good, bad := value.T(1, 2), value.T(1, 2, 3) // R has two attributes
	for name, cfg := range equivConfigs() {
		t.Run(name, func(t *testing.T) {
			eng := open[fivm.AnyEngine](t, cfg)
			wantErr := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "relation R has 2 attributes") || !strings.Contains(err.Error(), "of 3") {
					t.Fatalf("%s: err = %v, want R's arity 2 vs 3", what, err)
				}
			}
			wantErr("Init", eng.Init(map[string][]value.Tuple{"R": {good, bad}}))
			if err := eng.Init(map[string][]value.Tuple{"R": {good}, "S": {value.T(2, 3)}}); err != nil {
				t.Fatal(err)
			}
			before := snapshotState(t, eng)
			_, err := eng.BuildDelta("R", []view.Update{{Rel: "R", Tuple: good, Mult: 1}, {Rel: "R", Tuple: bad, Mult: 1}})
			wantErr("BuildDelta", err)
			wantErr("Apply", eng.Apply([]view.Update{
				{Rel: "S", Tuple: value.T(2, 4), Mult: 1},
				{Rel: "R", Tuple: good, Mult: 1},
				{Rel: "R", Tuple: bad, Mult: 1},
			}))
			if after := snapshotState(t, eng); after != before || eng.Stats().Updates != 0 {
				t.Fatalf("a rejected batch changed the engine (%d updates applied)", eng.Stats().Updates)
			}
		})
	}
}

// The unified result-access convention: Payload never errors (ring zero
// on the empty join); typed interpreters fail with a descriptive error.
func TestEmptyJoinConvention(t *testing.T) {
	rels := openRels()
	cov := open[*fivm.Engine[*ring.RangedCovar]](t, fivm.Config{Relations: rels, Attrs: []string{"B", "D"}})
	if p := cov.Payload(); p != nil {
		t.Fatalf("empty covar payload = %v, want nil (ring zero)", p)
	}
	m := cov.PublishModel(nil).(*fivm.CovarModel)
	if m.Payload != nil {
		t.Fatalf("empty covar model payload = %v, want nil", m.Payload)
	}
	if _, err := m.ResultJSON(); err == nil {
		t.Fatal("CovarModel.ResultJSON on the empty join must fail")
	}
	count := open[*fivm.Engine[int64]](t, fivm.Config{Relations: rels, Query: "SELECT A, SUM(1) FROM R NATURAL JOIN S GROUP BY A"})
	if n := count.Result().Len(); n != 0 {
		t.Fatalf("empty count result holds %d groups", n)
	}
	body, _ := count.PublishModel(nil).ResultJSON()
	if rows := body.(map[string]any)["rows"].([]fivm.TableRow); rows == nil || len(rows) != 0 {
		t.Fatalf("empty join must enumerate to an empty row list, got %v", rows)
	}
}

// Published models are isolated deep copies: later maintenance must not
// leak into them, for any engine kind.
func TestPublishedModelsAreImmutable(t *testing.T) {
	cfgs := []fivm.Config{
		{Relations: openRels(), Query: "SELECT A, SUM(1) FROM R NATURAL JOIN S GROUP BY A"},
		{Relations: openRels(), Query: "SELECT SUM(B * D) FROM R NATURAL JOIN S"},
		{Relations: openRels(), Attrs: []string{"B", "D"}},
		{Relations: openRels(), Features: []fivm.FeatureSpec{{Attr: "B"}, {Attr: "D"}}, Label: "D"},
	}
	for _, cfg := range cfgs {
		eng, err := fivm.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Init(toyData()); err != nil {
			t.Fatal(err)
		}
		m := eng.PublishModel(nil)
		before := m.Count()
		if err := eng.Apply([]view.Update{{Rel: "R", Tuple: value.T("a1", 42), Mult: 1}}); err != nil {
			t.Fatal(err)
		}
		if got := m.Count(); got != before {
			t.Fatalf("%s model count changed after maintenance: %v -> %v", eng.Kind(), before, got)
		}
		fresh := eng.PublishModel(m)
		if fresh.Count() == before {
			t.Fatalf("%s fresh model did not reflect the insert", eng.Kind())
		}
	}
}
