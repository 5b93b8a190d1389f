package dataset

import (
	"testing"

	"repro/internal/value"
)

func TestRetailerShapeAndFKConsistency(t *testing.T) {
	cfg := RetailerConfig{Locations: 5, Dates: 10, Items: 20, InventoryRows: 300, Zips: 4, Seed: 9}
	db := Retailer(cfg)
	if db.Name != "Retailer" || len(db.Relations) != 5 {
		t.Fatalf("db = %s with %d relations", db.Name, len(db.Relations))
	}
	inv, ok := db.Relation("Inventory")
	if !ok || len(inv.Tuples) != 300 {
		t.Fatalf("Inventory: %d tuples", len(inv.Tuples))
	}
	loc, _ := db.Relation("Location")
	if len(loc.Tuples) != 5 {
		t.Errorf("Location: %d tuples, want 5", len(loc.Tuples))
	}
	cen, _ := db.Relation("Census")
	if len(cen.Tuples) != 4 {
		t.Errorf("Census: %d tuples, want 4", len(cen.Tuples))
	}

	// FK consistency: every Inventory (locn, dateid, ksn) must have
	// matching dimension rows, so the 5-way join is never empty.
	locns := map[int64]bool{}
	for _, tp := range loc.Tuples {
		locns[tp[0].Int()] = true
	}
	items, _ := db.Relation("Item")
	ksns := map[int64]bool{}
	for _, tp := range items.Tuples {
		ksns[tp[0].Int()] = true
	}
	weather, _ := db.Relation("Weather")
	weatherLD := map[[2]int64]bool{}
	for _, tp := range weather.Tuples {
		weatherLD[[2]int64{tp[0].Int(), tp[1].Int()}] = true
	}
	for _, tp := range inv.Tuples {
		l, d, k := tp[0].Int(), tp[1].Int(), tp[2].Int()
		if !locns[l] {
			t.Fatalf("fact references missing locn %d", l)
		}
		if !ksns[k] {
			t.Fatalf("fact references missing ksn %d", k)
		}
		if !weatherLD[[2]int64{l, d}] {
			t.Fatalf("fact references missing weather (%d, %d)", l, d)
		}
	}
	// Every Location zip must exist in Census.
	zips := map[int64]bool{}
	for _, tp := range cen.Tuples {
		zips[tp[0].Int()] = true
	}
	for _, tp := range loc.Tuples {
		if !zips[tp[1].Int()] {
			t.Fatalf("location references missing zip %d", tp[1].Int())
		}
	}
}

func TestRetailerDeterministicBySeed(t *testing.T) {
	cfg := RetailerConfig{Locations: 3, Dates: 5, Items: 10, InventoryRows: 50, Zips: 3, Seed: 4}
	a := Retailer(cfg)
	b := Retailer(cfg)
	at, _ := a.Relation("Inventory")
	bt, _ := b.Relation("Inventory")
	for i := range at.Tuples {
		if !at.Tuples[i].Equal(bt.Tuples[i]) {
			t.Fatalf("row %d differs across same-seed runs", i)
		}
	}
	cfg.Seed = 5
	c := Retailer(cfg)
	ct, _ := c.Relation("Inventory")
	same := true
	for i := range at.Tuples {
		if !at.Tuples[i].Equal(ct.Tuples[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestRetailerSchemasMatchAttrLists(t *testing.T) {
	db := Retailer(RetailerConfig{Locations: 2, Dates: 2, Items: 2, InventoryRows: 10, Zips: 2, Seed: 1})
	for _, r := range db.Relations {
		for i, tp := range r.Tuples {
			if len(tp) != len(r.Attrs) {
				t.Fatalf("%s row %d: arity %d, schema %d", r.Name, i, len(tp), len(r.Attrs))
			}
		}
		if r.Schema().Len() != len(r.Attrs) {
			t.Fatalf("%s schema dropped attributes", r.Name)
		}
	}
	attrs := RetailerAttrs()
	if len(attrs) != 5 || attrs["Inventory"][0] != "locn" {
		t.Error("RetailerAttrs drifted")
	}
}

func TestFavoritaShape(t *testing.T) {
	db := Favorita(FavoritaConfig{Stores: 4, Items: 20, Dates: 15, SalesRows: 200, Seed: 2})
	if len(db.Relations) != 6 {
		t.Fatalf("%d relations", len(db.Relations))
	}
	sales, ok := db.Relation("Sales")
	if !ok || len(sales.Tuples) != 200 {
		t.Fatalf("Sales: %d rows", len(sales.Tuples))
	}
	oil, _ := db.Relation("Oil")
	if len(oil.Tuples) != 15 {
		t.Errorf("Oil: %d rows, want 15", len(oil.Tuples))
	}
	// FK: every sale's (date, store) pair has a Transactions row.
	tx, _ := db.Relation("Transactions")
	pairs := map[[2]int64]bool{}
	for _, tp := range tx.Tuples {
		pairs[[2]int64{tp[0].Int(), tp[1].Int()}] = true
	}
	for _, tp := range sales.Tuples {
		if !pairs[[2]int64{tp[0].Int(), tp[1].Int()}] {
			t.Fatalf("sale references missing transactions (%d, %d)", tp[0].Int(), tp[1].Int())
		}
	}
	if !db.IsCategorical("family") || db.IsCategorical("unit_sales") {
		t.Error("categorical metadata wrong")
	}
}

func TestDatabaseHelpers(t *testing.T) {
	db := Retailer(RetailerConfig{Locations: 2, Dates: 2, Items: 2, InventoryRows: 5, Zips: 2, Seed: 1})
	if _, ok := db.Relation("Nope"); ok {
		t.Error("phantom relation")
	}
	tm := db.TupleMap()
	if len(tm) != 5 || len(tm["Inventory"]) != 5 {
		t.Errorf("TupleMap = %d relations, %d facts", len(tm), len(tm["Inventory"]))
	}
}

func TestStreamWellFormed(t *testing.T) {
	db := Retailer(RetailerConfig{Locations: 3, Dates: 5, Items: 10, InventoryRows: 100, Zips: 3, Seed: 6})
	s, err := NewStream(db, StreamConfig{Relation: "Inventory", Total: 500, DeleteRatio: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Updates) != 500 {
		t.Fatalf("stream length = %d", len(s.Updates))
	}
	// Every delete must cancel a previously inserted stream tuple:
	// running multiplicity per tuple never goes negative, and deletes
	// only target stream inserts.
	live := map[string]int{}
	deletes := 0
	for i, u := range s.Updates {
		if u.Rel != "Inventory" {
			t.Fatalf("update %d targets %s", i, u.Rel)
		}
		k := u.Tuple.Encode()
		live[k] += u.Mult
		if live[k] < 0 {
			t.Fatalf("update %d: tuple %v deleted more than inserted", i, u.Tuple)
		}
		if u.Mult < 0 {
			deletes++
		}
	}
	if deletes == 0 {
		t.Error("no deletes despite ratio 0.4")
	}
	if float64(deletes)/500 > 0.5 {
		t.Errorf("delete fraction %v implausibly high", float64(deletes)/500)
	}
	// FK consistency of inserted tuples (keys cloned from base rows).
	loc := map[int64]bool{}
	l, _ := db.Relation("Location")
	for _, tp := range l.Tuples {
		loc[tp[0].Int()] = true
	}
	for _, u := range s.Updates {
		if u.Mult > 0 && !loc[u.Tuple[0].Int()] {
			t.Fatalf("stream insert references missing locn %d", u.Tuple[0].Int())
		}
	}
}

func TestStreamBulks(t *testing.T) {
	db := Retailer(RetailerConfig{Locations: 2, Dates: 2, Items: 5, InventoryRows: 20, Zips: 2, Seed: 1})
	s, err := NewStream(db, StreamConfig{Relation: "Inventory", Total: 25, DeleteRatio: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bulks := s.Bulks(10)
	if len(bulks) != 3 || len(bulks[0]) != 10 || len(bulks[2]) != 5 {
		t.Errorf("bulks = %d of sizes %d/%d", len(bulks), len(bulks[0]), len(bulks[len(bulks)-1]))
	}
	if all := s.Bulks(0); len(all) != 1 || len(all[0]) != 25 {
		t.Error("Bulks(0) must return everything at once")
	}
}

func TestStreamErrors(t *testing.T) {
	db := Retailer(RetailerConfig{Locations: 2, Dates: 2, Items: 5, InventoryRows: 10, Zips: 2, Seed: 1})
	if _, err := NewStream(db, StreamConfig{Relation: "Nope", Total: 5}); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := NewStream(db, StreamConfig{Relation: "Inventory", Total: 5, DeleteRatio: 1.5}); err == nil {
		t.Error("bad delete ratio accepted")
	}
	empty := &Database{Name: "E", Relations: []Relation{{Name: "R", Attrs: []string{"A"}}}}
	if _, err := NewStream(empty, StreamConfig{Relation: "R", Total: 5}); err == nil {
		t.Error("empty relation accepted")
	}
}

func TestRoundRobinStream(t *testing.T) {
	db := Retailer(RetailerConfig{Locations: 3, Dates: 4, Items: 8, InventoryRows: 60, Zips: 3, Seed: 8})
	ups, err := RoundRobinStream(db, []string{"Inventory", "Item"}, 40, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 40 {
		t.Fatalf("stream length = %d", len(ups))
	}
	// Interleaving: consecutive updates alternate relations.
	if ups[0].Rel == ups[1].Rel {
		t.Errorf("not interleaved: %s, %s", ups[0].Rel, ups[1].Rel)
	}
	seen := map[string]int{}
	for _, u := range ups {
		seen[u.Rel]++
	}
	if seen["Inventory"] != 20 || seen["Item"] != 20 {
		t.Errorf("distribution = %v", seen)
	}
	if _, err := RoundRobinStream(db, []string{"Nope"}, 10, 0, 1); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestStreamPerturbsMeasures(t *testing.T) {
	db := Favorita(FavoritaConfig{Stores: 3, Items: 10, Dates: 6, SalesRows: 50, Seed: 3})
	s, err := NewStream(db, StreamConfig{Relation: "Sales", Total: 100, DeleteRatio: 0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// unit_sales (index 3, float) must vary across inserts cloned from
	// the same base rows.
	vals := map[string]bool{}
	for _, u := range s.Updates {
		vals[value.Float(u.Tuple[3].Float()).String()] = true
	}
	if len(vals) < 10 {
		t.Errorf("only %d distinct unit_sales values; perturbation broken", len(vals))
	}
}
