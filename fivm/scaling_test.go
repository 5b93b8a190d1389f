package fivm_test

import (
	"fmt"
	"testing"
	"time"

	"repro/fivm"
	"repro/internal/dataset"
	"repro/internal/view"
)

// retailerAttrs are the continuous attributes of the covar workloads
// below: five, so the payload is the 21-aggregate COVAR matrix.
var retailerAttrs = []string{"inventoryunits", "prize", "avghhi", "maxtemp", "medianage"}

// retailer generates the synthetic Retailer database with the given
// number of Inventory rows and dates (0 keeps the default 100).
func retailer(rows, dates int) (*dataset.Database, []fivm.RelationSpec) {
	cfg := dataset.DefaultRetailerConfig()
	cfg.InventoryRows = rows
	if dates > 0 {
		cfg.Dates = dates
	}
	db := dataset.Retailer(cfg)
	return db, relationSpecs(db)
}

// favorita generates the synthetic Favorita database with the given
// number of Sales rows and dates; stores and items keep their defaults.
func favorita(rows, dates int) *dataset.Database {
	cfg := dataset.DefaultFavoritaConfig()
	cfg.SalesRows, cfg.Dates = rows, dates
	return dataset.Favorita(cfg)
}

// inventoryStream is n Inventory updates over db with the given share
// of deletes (of tuples the stream itself inserted).
func inventoryStream(t *testing.T, db *dataset.Database, n int, deleteRatio float64) []view.Update {
	t.Helper()
	st, err := dataset.NewStream(db, dataset.StreamConfig{
		Relation: "Inventory", Total: n, DeleteRatio: deleteRatio, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st.Updates
}

// ratioGate is the verdict of the timing tests below: num/den must lie
// in [lo, hi]. A side that measured nothing fails, since a gate that
// reads no ratio guards nothing.
func ratioGate(num, den time.Duration, lo, hi float64) (float64, error) {
	if num <= 0 || den <= 0 {
		return 0, fmt.Errorf("nothing measured (%v / %v)", num, den)
	}
	r := float64(num) / float64(den)
	if r < lo || r > hi {
		return r, fmt.Errorf("%v / %v = %.2f×, outside [%.1f×, %.1f×]", num, den, r, lo, hi)
	}
	return r, nil
}

// TestScalingGate checks the verdict on synthetic timings, so every
// host exercises it.
func TestScalingGate(t *testing.T) {
	us := time.Microsecond
	for _, c := range []struct {
		name         string
		small, large time.Duration
		pass         bool
	}{
		{"FlatCurvePasses", 13 * us, 21 * us, true},
		{"LinearCurveFails", 97 * us, 540 * us, false}, // build-and-scan's 5.6×
		{"MissingEntriesFails", 0, 0, false},
		{"UnpairedFamilyFails", 13 * us, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if g, err := ratioGate(c.large, c.small, 0, 3); (err == nil) != c.pass {
				t.Errorf("read %.2f×, err %v; want pass=%v", g, err, c.pass)
			}
		})
	}
}

// singleTuplePair bulk-loads an engine of cfg over db and returns one
// insert+delete of the first tuple of relation rel through the prebuilt
// delta path, as the serving pipeline applies it. The pair leaves the
// engine's state unchanged.
func singleTuplePair(t *testing.T, cfg fivm.Config, db *dataset.Database, rel string) func() {
	t.Helper()
	cfg.Relations = relationSpecs(db)
	eng, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(db.TupleMap()); err != nil {
		t.Fatal(err)
	}
	tup := db.TupleMap()[rel][0]
	dIns, err := eng.BuildDelta(rel, []view.Update{{Rel: rel, Tuple: tup, Mult: 1}})
	if err != nil {
		t.Fatal(err)
	}
	dDel, err := eng.BuildDelta(rel, []view.Update{{Rel: rel, Tuple: tup, Mult: -1}})
	if err != nil {
		t.Fatal(err)
	}
	pair := func() {
		if err := eng.ApplyBuilt(rel, dIns); err != nil {
			t.Fatal(err)
		}
		if err := eng.ApplyBuilt(rel, dDel); err != nil {
			t.Fatal(err)
		}
	}
	pair() // warm the tree's recycled buffers
	return pair
}

// TestSingleTupleLatencyFlat pins the paper's complexity claim:
// single-tuple maintenance costs O(|delta|), not O(database). Each row
// times one insert+delete pair of one relation's tuple against a small
// and a large database, and the large side must stay within 3× of the
// small one.
//
//   - Retailer Inventory, 1 000 → 100 000 Inventory rows. Dates grow
//     with the rows (10 → 1 000), so Weather — one row per (store, date)
//     the facts mention, the sibling view an Inventory update joins —
//     grows ~100× as well; at the default 100 dates it saturates at
//     3 000 rows and a path forced onto build-and-scan reads only ~2.9×.
//   - Favorita Transactions and Holiday, 10 000 × 120 → 160 000 × 1 920
//     Sales rows × dates; stores and items stay fixed, so the rows per
//     date, and with them every per-key degree, stay bounded. Their
//     deltas enter nodes of three parts (V@store, V@date) behind the
//     first position: the rows that hold only if a step iterates its
//     delta whatever position it enters at.
//
// The indexed delta path reads ~1×; build-and-scan grows with the
// sibling views while barely moving allocations, which is why this is a
// latency test and not an alloc pin. Both sides run in alternating
// rounds of one process and each keeps its fastest round, so the ratio
// needs no baseline from matching hardware.
func TestSingleTupleLatencyFlat(t *testing.T) {
	const (
		maxGrowth = 3.0
		rounds    = 5
		pairs     = 200
	)
	type scale struct{ small, large *dataset.Database }
	smallRetailer, _ := retailer(1_000, 10)
	largeRetailer, _ := retailer(100_000, 1_000)
	retail := scale{smallRetailer, largeRetailer}
	fav := scale{favorita(10_000, 120), favorita(160_000, 1_920)}
	count := fivm.Config{Query: "SELECT SUM(1) FROM Inventory NATURAL JOIN Location NATURAL JOIN Census NATURAL JOIN Item NATURAL JOIN Weather"}
	favCovar := fivm.Config{Attrs: []string{"unit_sales", "transactions", "oilprice"}}
	for _, row := range []struct {
		name, rel string
		db        scale
		cfg       fivm.Config
	}{
		{"count", "Inventory", retail, count},
		{"covar", "Inventory", retail, fivm.Config{Attrs: retailerAttrs}},
		{"Favorita/Transactions", "Transactions", fav, favCovar},
		{"Favorita/Holiday", "Holiday", fav, favCovar},
	} {
		t.Run(row.name, func(t *testing.T) {
			sides := []func(){
				singleTuplePair(t, row.cfg, row.db.small, row.rel),
				singleTuplePair(t, row.cfg, row.db.large, row.rel),
			}
			best := []time.Duration{time.Hour, time.Hour}
			for r := 0; r < rounds; r++ {
				for i, pair := range sides {
					t0 := time.Now()
					for p := 0; p < pairs; p++ {
						pair()
					}
					best[i] = min(best[i], time.Since(t0)/pairs)
				}
			}
			growth, err := ratioGate(best[1], best[0], 0, maxGrowth)
			t.Logf("%s single-tuple insert+delete: %v small, %v large: %.2f× (budget %.1f×)",
				row.name, best[0], best[1], growth, maxGrowth)
			if err != nil {
				t.Errorf("%s: single-tuple latency, large over small database: %v: per-update cost is scaling with the database, not the delta", row.name, err)
			}
		})
	}
}
