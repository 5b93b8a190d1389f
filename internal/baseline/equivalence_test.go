package baseline_test

// Equivalence tests: F-IVM's factorized ring maintenance, the flat
// first-order IVM baseline, and full recomputation must agree on every
// COVAR statistic at every batch boundary. This is the strongest
// correctness check in the repository: three independent evaluation
// strategies over the same update stream.

import (
	"math"
	"testing"

	"repro/fivm"
	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/value"
	"repro/internal/view"
)

// smallRetailer returns a small Retailer instance and the continuous
// attributes used as the COVAR aggregate set.
func smallRetailer() (*dataset.Database, []baseline.RelSpec, []fivm.RelationSpec, []string) {
	cfg := dataset.RetailerConfig{
		Locations: 10, Dates: 20, Items: 40, InventoryRows: 500, Zips: 8, Seed: 42,
	}
	db := dataset.Retailer(cfg)
	var bspecs []baseline.RelSpec
	var fspecs []fivm.RelationSpec
	for _, r := range db.Relations {
		bspecs = append(bspecs, baseline.RelSpec{Name: r.Name, Schema: r.Schema()})
		fspecs = append(fspecs, fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs})
	}
	aggAttrs := []string{"inventoryunits", "prize", "avghhi", "maxtemp", "medianage"}
	return db, bspecs, fspecs, aggAttrs
}

func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= 1e-6*scale
}

func TestCovarEquivalenceAcrossStrategies(t *testing.T) {
	db, bspecs, fspecs, aggAttrs := smallRetailer()

	opened, err := fivm.Open(fivm.Config{Relations: fspecs, Attrs: aggAttrs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	eng := opened.(*fivm.CovarEngine)
	flat, err := baseline.NewFlatIVM(bspecs, aggAttrs)
	if err != nil {
		t.Fatalf("NewFlatIVM: %v", err)
	}
	re, err := baseline.NewReeval(bspecs, aggAttrs)
	if err != nil {
		t.Fatalf("NewReeval: %v", err)
	}

	data := db.TupleMap()
	if err := eng.Init(data); err != nil {
		t.Fatalf("fivm Init: %v", err)
	}
	if err := flat.Init(data); err != nil {
		t.Fatalf("flat Init: %v", err)
	}
	if err := re.Init(data); err != nil {
		t.Fatalf("reeval Init: %v", err)
	}

	check := func(when string) {
		t.Helper()
		p, _ := eng.Covar() // nil on the empty join
		q := re.Payload()
		if p == nil || q == nil {
			if flat.Count() != 0 {
				t.Fatalf("%s: fivm/reeval empty but flat count=%v", when, flat.Count())
			}
			return
		}
		if !approxEq(p.Count(), flat.Count()) || !approxEq(p.Count(), q.Count()) {
			t.Errorf("%s: count fivm=%v flat=%v reeval=%v", when, p.Count(), flat.Count(), q.Count())
		}
		for i := range aggAttrs {
			if !approxEq(p.Sum(i), flat.Sum(i)) || !approxEq(p.Sum(i), q.Sum(i)) {
				t.Errorf("%s: SUM(%s) fivm=%v flat=%v reeval=%v", when, aggAttrs[i], p.Sum(i), flat.Sum(i), q.Sum(i))
			}
			for j := i; j < len(aggAttrs); j++ {
				if !approxEq(p.Prod(i, j), flat.Prod(i, j)) || !approxEq(p.Prod(i, j), q.Prod(i, j)) {
					t.Errorf("%s: SUM(%s*%s) fivm=%v flat=%v reeval=%v",
						when, aggAttrs[i], aggAttrs[j], p.Prod(i, j), flat.Prod(i, j), q.Prod(i, j))
				}
			}
		}
	}
	check("after init")
	if eng.Payload() == nil || eng.Payload().Count() == 0 {
		t.Fatal("empty join after init; dataset generator broke FK consistency")
	}

	stream, err := dataset.NewStream(db, dataset.StreamConfig{
		Relation: "Inventory", Total: 600, DeleteRatio: 0.3, Seed: 99,
	})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	for i, bulk := range stream.Bulks(100) {
		if err := eng.Apply(bulk); err != nil {
			t.Fatalf("fivm Apply bulk %d: %v", i, err)
		}
		if err := flat.Apply(bulk); err != nil {
			t.Fatalf("flat Apply bulk %d: %v", i, err)
		}
		if err := re.Apply(bulk); err != nil {
			t.Fatalf("reeval Apply bulk %d: %v", i, err)
		}
		check("after bulk")
	}
}

// TestEquivalenceMultiRelationUpdates drives updates through dimension
// tables too, exercising every anchor path of the 5-way view tree.
func TestEquivalenceMultiRelationUpdates(t *testing.T) {
	db, bspecs, fspecs, aggAttrs := smallRetailer()

	opened, err := fivm.Open(fivm.Config{Relations: fspecs, Attrs: aggAttrs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	eng := opened.(*fivm.CovarEngine)
	re, err := baseline.NewReeval(bspecs, aggAttrs)
	if err != nil {
		t.Fatalf("NewReeval: %v", err)
	}
	data := db.TupleMap()
	if err := eng.Init(data); err != nil {
		t.Fatalf("fivm Init: %v", err)
	}
	if err := re.Init(data); err != nil {
		t.Fatalf("reeval Init: %v", err)
	}

	ups, err := dataset.RoundRobinStream(db, []string{"Inventory", "Item", "Weather"}, 300, 0.25, 7)
	if err != nil {
		t.Fatalf("RoundRobinStream: %v", err)
	}
	for i := 0; i < len(ups); i += 50 {
		j := i + 50
		if j > len(ups) {
			j = len(ups)
		}
		bulk := ups[i:j]
		if err := eng.Apply(bulk); err != nil {
			t.Fatalf("fivm Apply: %v", err)
		}
		if err := re.Apply(bulk); err != nil {
			t.Fatalf("reeval Apply: %v", err)
		}
		p, err := eng.Covar()
		if err != nil {
			t.Fatalf("bulk ending %d: %v", j, err)
		}
		q := re.Payload()
		pc, qc := p.Count(), q.Count()
		if !approxEq(pc, qc) {
			t.Fatalf("bulk ending %d: count fivm=%v reeval=%v", j, pc, qc)
		}
		for a := range aggAttrs {
			if !approxEq(p.Sum(a), q.Sum(a)) {
				t.Fatalf("bulk ending %d: SUM(%s) fivm=%v reeval=%v", j, aggAttrs[a], p.Sum(a), q.Sum(a))
			}
			for b := a; b < len(aggAttrs); b++ {
				if !approxEq(p.Prod(a, b), q.Prod(a, b)) {
					t.Fatalf("bulk ending %d: SUM(%s*%s) fivm=%v reeval=%v", j, aggAttrs[a], aggAttrs[b], p.Prod(a, b), q.Prod(a, b))
				}
			}
		}
	}
}

// TestFlatIVMJoinMaterialization sanity-checks that the baseline indeed
// materializes the flat join (the cost F-IVM avoids) and that its size
// tracks inserts and deletes.
func TestFlatIVMJoinMaterialization(t *testing.T) {
	_, bspecs, _, aggAttrs := smallRetailer()
	db, _, _, _ := smallRetailer()
	flat, err := baseline.NewFlatIVM(bspecs, aggAttrs)
	if err != nil {
		t.Fatalf("NewFlatIVM: %v", err)
	}
	if err := flat.Init(db.TupleMap()); err != nil {
		t.Fatalf("Init: %v", err)
	}
	size0 := flat.JoinSize()
	if size0 == 0 {
		t.Fatal("flat join is empty after init")
	}
	inv, _ := db.Relation("Inventory")
	tup := inv.Tuples[0]
	// A fresh fact row (new tuple identity) joins with the dimensions:
	// bump the measure to create a distinct tuple.
	fresh := make(value.Tuple, len(tup))
	copy(fresh, tup)
	fresh[3] = value.Int(999_999)
	if err := flat.Apply([]view.Update{{Rel: "Inventory", Tuple: fresh, Mult: 1}}); err != nil {
		t.Fatalf("Apply insert: %v", err)
	}
	if flat.JoinSize() <= size0 {
		t.Errorf("join size %d did not grow after insert (was %d)", flat.JoinSize(), size0)
	}
	if err := flat.Apply([]view.Update{{Rel: "Inventory", Tuple: fresh, Mult: -1}}); err != nil {
		t.Fatalf("Apply delete: %v", err)
	}
	if flat.JoinSize() != size0 {
		t.Errorf("join size %d after delete, want %d", flat.JoinSize(), size0)
	}
}
