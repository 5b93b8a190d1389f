package fivm_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/fivm"
	"repro/internal/daemon"
	"repro/internal/value"
	"repro/internal/view"
)

// TestOutOfRangeValuesRefused: a continuous value whose square
// overflows, or one that is not finite, would turn Q into ±Inf, and its
// delete into NaN for good. Apply, BuildDelta, CheckUpdate and Init
// refuse its whole batch with an error naming the relation, the
// attribute and the value, so inserting and deleting it leaves the
// model as it was, equal to a fresh engine's over the same tuples.
func TestOutOfRangeValuesRefused(t *testing.T) {
	db, rels := retailer(500, 0)
	analysis, _, err := daemon.BuildEngineConfig("retailer", 500, false, "", "", "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	units := -1
	for _, r := range rels {
		if r.Name == "Inventory" {
			units = slices.Index(r.Attrs, "inventoryunits")
		}
	}
	good := inventoryStream(t, db, 1, 0)[0]
	for _, cfg := range []fivm.Config{{Relations: rels, Attrs: retailerAttrs}, analysis} {
		eng, fresh := open[fivm.AnyEngine](t, cfg), open[fivm.AnyEngine](t, cfg)
		for _, e := range []fivm.AnyEngine{eng, fresh} {
			if err := e.Init(db.TupleMap()); err != nil {
				t.Fatal(err)
			}
		}
		before := modelJSON(eng.PublishModel(nil))
		for _, x := range []float64{1e200, -1e101, math.Inf(1), math.NaN()} {
			bad := view.Update{Rel: "Inventory", Tuple: slices.Clone(good.Tuple), Mult: 1}
			bad.Tuple[units] = value.Float(x)
			del := bad
			del.Mult = -1
			refused := func(op string, err error) {
				t.Helper()
				if want := "relation Inventory: inventoryunits = " + value.Float(x).String(); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s %s with inventoryunits = %v: err = %v, want one naming %q", eng.Kind(), op, x, err, want)
				}
			}
			for _, ups := range [][]view.Update{{good, bad}, {del}} {
				refused("Apply", eng.Apply(ups))
				_, err := eng.BuildDelta("Inventory", ups)
				refused("BuildDelta", err)
			}
			refused("CheckUpdate", eng.CheckUpdate(bad))
			data := db.TupleMap()
			data["Inventory"] = append(slices.Clone(data["Inventory"]), bad.Tuple)
			refused("Init", eng.Init(data))
		}
		// Loads sum in relation order, so two engines over the same tuples
		// agree to rounding; the engine itself must not have moved at all.
		got := modelJSON(eng.PublishModel(nil))
		if want := modelJSON(fresh.PublishModel(nil)); got != before || !sameState(got, want, 1e-9) {
			t.Errorf("%s: after the refused insert and delete the model is\n%s\nwant the one before\n%s\nand a fresh engine's\n%s", eng.Kind(), got, before, want)
		}
	}
}
