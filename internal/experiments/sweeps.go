package experiments

import (
	"fmt"

	"repro/fivm"
	"repro/internal/view"
)

// E7BatchSize sweeps the update bulk size at fixed workload: larger
// bulks amortize per-batch delta construction and view probing, the
// effect behind the demo's 10K-update bulks.
func E7BatchSize(sc Scale, sizes []int) ([]Throughput, error) {
	s := newRetailerSetup(sc, 1)
	var rows []Throughput
	for _, b := range sizes {
		eng, err := openLoaded(fivm.Config{Attrs: s.aggAttrs}, s.fspecs, s.db.TupleMap())
		if err != nil {
			return nil, err
		}
		ups := s.stream(sc.StreamLen, 0.2, 5)
		r, err := measure(fmt.Sprintf("batch=%d", b), ups, b, eng.Apply)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// E7AggCount sweeps the number of aggregates in the compound payload
// (degree m of the matrix ring): the per-update cost grows ~O(m²) while
// a per-aggregate strategy would rerun the join m(m+3)/2+1 times.
func E7AggCount(sc Scale, ms []int) ([]Throughput, error) {
	s := newRetailerSetup(sc, 1)
	all := []string{"inventoryunits", "prize", "avghhi", "maxtemp", "medianage",
		"population", "medianage2", "tot_area_sq_ft", "sell_area_sq_ft", "mintemp",
		"meanwind", "houseunits", "families", "households", "males",
		"females", "white", "black", "asian", "hispanic"}
	// medianage2 is a placeholder; drop attrs not in the schema.
	valid := all[:0]
	schema := map[string]bool{}
	for _, r := range s.db.Relations {
		for _, a := range r.Attrs {
			schema[a] = true
		}
	}
	for _, a := range all {
		if schema[a] {
			valid = append(valid, a)
		}
	}
	var rows []Throughput
	for _, m := range ms {
		if m > len(valid) {
			m = len(valid)
		}
		eng, err := openLoaded(fivm.Config{Attrs: valid[:m]}, s.fspecs, s.db.TupleMap())
		if err != nil {
			return nil, err
		}
		ups := s.stream(sc.StreamLen, 0.2, 6)
		r, err := measure(fmt.Sprintf("m=%d", m), ups, sc.BatchSize, eng.Apply)
		if err != nil {
			return nil, err
		}
		r.Note = fmt.Sprintf("%d scalar aggregates", 1+m+m*(m+1)/2)
		rows = append(rows, r)
	}
	return rows, nil
}

// A1Sharing isolates the ring-sharing benefit: the compound degree-m
// COVAR ring versus maintaining the same 1+m+m(m+1)/2 aggregates as
// independent float-ring view trees (still factorized, but each
// aggregate re-walks the view tree on every update).
func A1Sharing(sc Scale, m int) ([]Throughput, error) {
	s := newRetailerSetup(sc, 1)
	attrs := s.aggAttrs
	if m < len(attrs) {
		attrs = attrs[:m]
	}
	data := s.db.TupleMap()
	ups := s.stream(sc.StreamLen, 0.2, 7)
	var rows []Throughput

	eng, err := openLoaded(fivm.Config{Attrs: attrs}, s.fspecs, data)
	if err != nil {
		return nil, err
	}
	r, err := measure("compound COVAR ring (shared)", ups, sc.BatchSize, eng.Apply)
	if err != nil {
		return nil, err
	}
	nAggs := 1 + len(attrs) + len(attrs)*(len(attrs)+1)/2
	r.Note = fmt.Sprintf("%d aggregates, one view tree", nAggs)
	rows = append(rows, r)

	// Unshared: one float-ring tree per aggregate (SUM(1) included:
	// the kind is forced, not inferred as count).
	relNames := "Inventory NATURAL JOIN Location NATURAL JOIN Census NATURAL JOIN Item NATURAL JOIN Weather"
	var trees []*view.Tree[float64]
	addTree := func(sel string) error {
		fe, err := openLoaded(fivm.Config{Kind: fivm.KindFloat, Query: "SELECT " + sel + " FROM " + relNames}, s.fspecs, data)
		if err != nil {
			return err
		}
		trees = append(trees, fe.(*fivm.FloatEngine).Tree())
		return nil
	}
	if err := addTree("SUM(1)"); err != nil {
		return nil, err
	}
	for i, a := range attrs {
		if err := addTree("SUM(" + a + ")"); err != nil {
			return nil, err
		}
		if err := addTree("SUM(sq(" + a + "))"); err != nil {
			return nil, err
		}
		for _, b := range attrs[i+1:] {
			if err := addTree("SUM(" + a + " * " + b + ")"); err != nil {
				return nil, err
			}
		}
	}
	apply := func(batch []view.Update) error {
		for _, t := range trees {
			if err := t.ApplyUpdates(batch); err != nil {
				return err
			}
		}
		return nil
	}
	r, err = measure("independent float trees (unshared)", ups, sc.BatchSize, apply)
	if err != nil {
		return nil, err
	}
	r.Note = fmt.Sprintf("%d aggregates, %d view trees", nAggs, len(trees))
	rows = append(rows, r)
	return rows, nil
}

// A3Deletes sweeps the delete ratio: F-IVM treats deletes as negative
// payloads, so throughput should stay in the same band regardless of
// the ratio — unlike insert-only online learning systems.
func A3Deletes(sc Scale, ratios []float64) ([]Throughput, error) {
	s := newRetailerSetup(sc, 1)
	var rows []Throughput
	for _, dr := range ratios {
		eng, err := openLoaded(fivm.Config{Attrs: s.aggAttrs}, s.fspecs, s.db.TupleMap())
		if err != nil {
			return nil, err
		}
		ups := s.stream(sc.StreamLen, dr, 8)
		r, err := measure(fmt.Sprintf("deleteRatio=%.2f", dr), ups, sc.BatchSize, eng.Apply)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}
