package fivm_test

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"repro/fivm"
	"repro/internal/value"
	"repro/internal/view"
)

func cloneFixture(t *testing.T) *fivm.Analysis {
	t.Helper()
	an := open[*fivm.Analysis](t, fivm.Config{
		Relations: []fivm.RelationSpec{{Name: "R", Attrs: []string{"A", "B"}}},
		Features:  []fivm.FeatureSpec{{Attr: "A"}, {Attr: "B", Categorical: true}},
	})
	if err := an.Init(map[string][]value.Tuple{
		"R": {value.T(1, "x"), value.T(2, "y"), value.T(3, "x")},
	}); err != nil {
		t.Fatal(err)
	}
	return an
}

// ClonePayload must survive later engine mutation untouched — the
// invariant the serving layer's lock-free snapshots rest on.
func TestClonePayloadIsIsolated(t *testing.T) {
	an := cloneFixture(t)
	clone := an.ClonePayload()
	if !clone.Equal(an.Payload()) {
		t.Fatal("clone differs from source payload")
	}
	if err := an.Apply([]view.Update{
		{Rel: "R", Tuple: value.T(40, "z"), Mult: 1},
		{Rel: "R", Tuple: value.T(1, "x"), Mult: -1},
	}); err != nil {
		t.Fatal(err)
	}
	if clone.Equal(an.Payload()) {
		t.Fatal("engine payload should have moved on")
	}
	if got := clone.Count().Scalar(); got != 3 {
		t.Fatalf("clone count = %v, want the pre-update 3", got)
	}
}

// A published AnalysisModel's payload is a copy of the coefficient
// slice, not a window onto it: the commits that follow fold into the
// live payload in place (known keys) or replace its slice (new keys),
// and neither may show through the model.
func TestPublishedAnalysisPayloadIsACopy(t *testing.T) {
	an := cloneFixture(t)
	// Two commits first, so the tree owns the result payload and folds
	// into it in place (the first commit after a load copies on write).
	for _, mult := range []int{1, -1} {
		if err := an.Apply([]view.Update{{Rel: "R", Tuple: value.T(5, "x"), Mult: mult}}); err != nil {
			t.Fatal(err)
		}
	}
	model := an.PublishModel(nil).(*fivm.AnalysisModel)
	frozen, rendered := model.Payload.Clone(), model.Payload.String()
	for _, ups := range [][]view.Update{
		{{Rel: "R", Tuple: value.T(2, "x"), Mult: 1}},   // every key known: in place
		{{Rel: "R", Tuple: value.T(9, "new"), Mult: 1}}, // a new category: one merge
		{{Rel: "R", Tuple: value.T(2, "y"), Mult: -1}},  // category y cancels away
	} {
		if err := an.Apply(ups); err != nil {
			t.Fatal(err)
		}
		if !model.Payload.Equal(frozen) || model.Payload.String() != rendered {
			t.Fatalf("published payload changed after %v:\n%v\nwant\n%s", ups, model.Payload, rendered)
		}
	}
	if an.Payload().Equal(frozen) || model.Count() != 3 {
		t.Fatalf("live count %v, model count %v: the engine should have moved on alone", an.Payload().CountScalar(), model.Count())
	}
}

func TestCloneViewIsIsolated(t *testing.T) {
	an := cloneFixture(t)
	cv := an.CloneView()
	before := cv.String()
	if err := an.Apply([]view.Update{{Rel: "R", Tuple: value.T(50, "w"), Mult: 1}}); err != nil {
		t.Fatal(err)
	}
	if cv.String() != before {
		t.Fatal("cloned view changed after engine update")
	}
}

func TestDeltaForFacade(t *testing.T) {
	an := cloneFixture(t)
	d, err := an.BuildDelta("R", []view.Update{
		{Rel: "R", Tuple: value.T(7, "q"), Mult: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := an.ApplyBuilt("R", d); err != nil {
		t.Fatal(err)
	}
	if got := an.Payload().Count().Scalar(); got != 5 {
		t.Fatalf("count = %v, want 5", got)
	}
	if _, err := an.BuildDelta("Nope", nil); err == nil {
		t.Fatal("BuildDelta must reject unknown relations")
	}
	if got := an.RelationNames(); len(got) != 1 || got[0] != "R" {
		t.Fatalf("RelationNames = %v", got)
	}
}

// The pure-constant aggregate must be rejected during validation, before
// any view tree is built.
func TestFloatEnginePureConstantRejectedEarly(t *testing.T) {
	float := func(query string) fivm.Config {
		return fivm.Config{Kind: fivm.KindFloat, Relations: []fivm.RelationSpec{{Name: "S", Attrs: []string{"A", "D"}}}, Query: query}
	}
	if _, err := fivm.Open(float("SELECT SUM(2) FROM S")); err == nil {
		t.Fatal("pure-constant aggregate SUM(2) accepted")
	}
	// SUM(1) stays valid as a float-ring count.
	eng := open[*fivm.FloatEngine](t, float("SELECT SUM(1) FROM S"))
	if err := eng.Init(map[string][]value.Tuple{"S": {value.T(1, 2), value.T(3, 4)}}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Payload(); got != 2 {
		t.Fatalf("SUM(1) = %v, want 2", got)
	}
}

// modelJSON renders a published model the way GET /v1/model does (a
// failure renders as its message, so it is compared like any body).
func modelJSON(m fivm.Model) string {
	j, err := m.ResultJSON()
	if err == nil {
		var b []byte
		if b, err = json.Marshal(j); err == nil {
			return string(b)
		}
	}
	return "error: " + err.Error()
}

// TestPublishedModelsAreIsolated is the snapshot-isolation contract of
// the serving layer, for every kind, now that views own their
// payloads and commit in place: a published model — including one whose
// rendering is lazy and shares payloads with the result through
// relation.Map.Clone — must render, at any later time and from any
// goroutine, exactly what an engine stopped at the publish point
// renders. A reader renders the model while the writer applies further
// batches (sequential and parallel commits), so `go test -race` also
// proves no later commit writes a payload a published model can reach.
func TestPublishedModelsAreIsolated(t *testing.T) {
	for name, cfg := range equivConfigs() {
		for _, workers := range []int{1, 4} {
			t.Run(name+map[int]string{1: "", 4: "/parallel"}[workers], func(t *testing.T) {
				rnd := rand.New(rand.NewSource(17))
				ups := equivStreamDomain(rnd, 3000, 12)
				const cut = 1500
				open := func() fivm.AnyEngine {
					e, err := fivm.Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					forceParallel(t, e, workers)
					// Several batches, so the result holds payloads the
					// tree owns (not just first-insert aliases).
					for i := 0; i < cut; i += 300 {
						if err := e.Apply(ups[i : i+300]); err != nil {
							t.Fatal(err)
						}
					}
					return e
				}
				want := modelJSON(open().PublishModel(nil))

				eng := open()
				published := eng.PublishModel(nil)
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						if got := modelJSON(published); got != want {
							t.Errorf("concurrent read %d of the published model:\n%s\nwant\n%s", i, got, want)
							return
						}
					}
				}()
				prev := published
				for i := cut; i < len(ups); i += 250 {
					if err := eng.Apply(ups[i : i+250]); err != nil {
						t.Fatal(err)
					}
					prev = eng.PublishModel(prev)
				}
				wg.Wait()
				if got := modelJSON(published); got != want {
					t.Fatalf("published model changed after later batches:\n%s\nwant\n%s", got, want)
				}
				if modelJSON(prev) == want {
					t.Fatal("the engine did not move on; the test is vacuous")
				}
			})
		}
	}
}
