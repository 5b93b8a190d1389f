package fivm_test

import (
	"math"
	"testing"

	"repro/fivm"
	"repro/internal/dataset"
)

// TestRangedEngineMatchesFullEngine maintains the same COVAR statistics
// with full-degree payloads and with ranged payloads over an update
// stream; every aggregate must agree at every batch boundary. The
// ranged engine reorders attributes structurally, so comparison is by
// attribute name.
func TestRangedEngineMatchesFullEngine(t *testing.T) {
	cfg := dataset.RetailerConfig{
		Locations: 8, Dates: 15, Items: 30, InventoryRows: 400, Zips: 6, Seed: 77,
	}
	db := dataset.Retailer(cfg)
	var rels []fivm.RelationSpec
	for _, r := range db.Relations {
		rels = append(rels, fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs})
	}
	attrs := []string{"inventoryunits", "prize", "avghhi", "maxtemp"}

	full := open[*fivm.CovarEngine](t, fivm.Config{Relations: rels, Attrs: attrs})
	ranged := open[*fivm.RangedCovarEngine](t, fivm.Config{Kind: fivm.KindRangedCovar, Relations: rels, Attrs: attrs})
	data := db.TupleMap()
	if err := full.Init(data); err != nil {
		t.Fatal(err)
	}
	if err := ranged.Init(data); err != nil {
		t.Fatal(err)
	}

	// Index mapping: caller order (full) -> structural order (ranged).
	rIdx := map[string]int{}
	for i, a := range ranged.Attrs {
		rIdx[a] = i
	}

	approxEqRanged := func(a, b float64) bool {
		if a == b {
			return true
		}
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	check := func(when string) {
		t.Helper()
		fp := full.Payload()
		rp, err := ranged.Payload().ToCovar(len(ranged.Attrs))
		if err != nil {
			t.Fatal(err)
		}
		if fp == nil || rp == nil {
			if fp != nil || rp != nil {
				t.Fatalf("%s: one engine empty, the other not", when)
			}
			return
		}
		if !approxEqRanged(fp.Count(), rp.Count()) {
			t.Fatalf("%s: count %v vs %v", when, fp.Count(), rp.Count())
		}
		for i, a := range attrs {
			if !approxEqRanged(fp.Sum(i), rp.Sum(rIdx[a])) {
				t.Fatalf("%s: SUM(%s) %v vs %v", when, a, fp.Sum(i), rp.Sum(rIdx[a]))
			}
			for j := i; j < len(attrs); j++ {
				b := attrs[j]
				if !approxEqRanged(fp.Prod(i, j), rp.Prod(rIdx[a], rIdx[b])) {
					t.Fatalf("%s: SUM(%s*%s) %v vs %v", when, a, b, fp.Prod(i, j), rp.Prod(rIdx[a], rIdx[b]))
				}
			}
		}
	}
	check("after init")
	if full.Payload() == nil {
		t.Fatal("empty join after init")
	}

	st, err := dataset.NewStream(db, dataset.StreamConfig{
		Relation: "Inventory", Total: 400, DeleteRatio: 0.3, Seed: 78,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bulk := range st.Bulks(80) {
		if err := full.Apply(bulk); err != nil {
			t.Fatal(err)
		}
		if err := ranged.Apply(bulk); err != nil {
			t.Fatal(err)
		}
		check("after bulk")
	}

	// Sigma extraction for the solver works off the ranged payload too.
	sigma, err := ranged.Sigma()
	if err != nil {
		t.Fatal(err)
	}
	if sigma.Dim() != len(attrs) {
		t.Errorf("sigma dim = %d", sigma.Dim())
	}
}

func TestRangedEngineErrors(t *testing.T) {
	ranged := func(attrs ...string) fivm.Config {
		return fivm.Config{Kind: fivm.KindRangedCovar, Relations: []fivm.RelationSpec{{Name: "R", Attrs: []string{"A", "B"}}}, Attrs: attrs}
	}
	if _, err := fivm.Open(ranged()); err == nil {
		t.Error("empty attrs accepted")
	}
	if _, err := fivm.Open(ranged("Z")); err == nil {
		t.Error("unknown attr accepted")
	}
	if _, err := fivm.Open(ranged("B", "B")); err == nil {
		t.Error("duplicate attr accepted")
	}
}
