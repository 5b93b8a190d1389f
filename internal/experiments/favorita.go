package experiments

import (
	"fmt"
	"time"

	"repro/fivm"
	"repro/internal/dataset"
	"repro/internal/ml"
)

// The demo maintains its applications over two databases; this file
// covers the second one, Favorita (6-way join). Experiment id E8 in the
// harness: throughput plus the three applications on Favorita.

// favoritaSetup builds the Favorita fixture.
type favoritaSetup struct {
	db     *dataset.Database
	fspecs []fivm.RelationSpec
}

func newFavoritaSetup(sc Scale, seed int64) favoritaSetup {
	cfg := dataset.DefaultFavoritaConfig()
	cfg.SalesRows = sc.InventoryRows
	cfg.Seed = seed
	db := dataset.Favorita(cfg)
	var s favoritaSetup
	s.db = db
	for _, r := range db.Relations {
		s.fspecs = append(s.fspecs, fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs})
	}
	return s
}

// E8Favorita runs the full demo loop on Favorita: maintain the MI and
// COVAR payloads over the 6-way join under update bulks, re-running
// model selection, regression, and the Chow-Liu tree per bulk.
func E8Favorita(sc Scale) ([]Throughput, []AppResult, error) {
	s := newFavoritaSetup(sc, 3)

	miFeatures := []fivm.FeatureSpec{
		{Attr: "unit_sales", BinWidth: 10},
		{Attr: "item", Categorical: true},
		{Attr: "family", Categorical: true},
		{Attr: "class", Categorical: true},
		{Attr: "perishable", Categorical: true},
		{Attr: "store", Categorical: true},
		{Attr: "city", Categorical: true},
		{Attr: "cluster", Categorical: true},
		{Attr: "oilprice", BinWidth: 5},
		{Attr: "holiday_type", Categorical: true},
	}
	covFeatures := []fivm.FeatureSpec{
		{Attr: "unit_sales"},
		{Attr: "family", Categorical: true},
		{Attr: "perishable", Categorical: true},
		{Attr: "cluster", Categorical: true},
		{Attr: "oilprice"},
		{Attr: "transactions"},
	}

	data := s.db.TupleMap()
	engMI, err := openLoaded(fivm.Config{Features: miFeatures}, s.fspecs, data)
	if err != nil {
		return nil, nil, err
	}
	engCov, err := openLoaded(fivm.Config{Features: covFeatures}, s.fspecs, data)
	if err != nil {
		return nil, nil, err
	}
	anMI, anCov := engMI.(*fivm.Analysis), engCov.(*fivm.Analysis)

	st, err := dataset.NewStream(s.db, dataset.StreamConfig{
		Relation: "Sales", Total: sc.StreamLen, DeleteRatio: 0.25, Seed: 61,
	})
	if err != nil {
		return nil, nil, err
	}

	// Throughput of the two maintained payloads.
	var rows []Throughput
	r, err := measure("Favorita MI payload (6-way join)", st.Updates, sc.BatchSize, anMI.Apply)
	if err != nil {
		return nil, nil, err
	}
	sigmaMI, err := anMI.MI()
	if err != nil {
		return nil, nil, err
	}
	r.Note = fmt.Sprintf("%d attributes in the MI matrix", sigmaMI.Dim())
	rows = append(rows, r)

	st2, err := dataset.NewStream(s.db, dataset.StreamConfig{
		Relation: "Sales", Total: sc.StreamLen, DeleteRatio: 0.25, Seed: 62,
	})
	if err != nil {
		return nil, nil, err
	}
	r, err = measure("Favorita COVAR payload (6-way join)", st2.Updates, sc.BatchSize, anCov.Apply)
	if err != nil {
		return nil, nil, err
	}
	sigma, err := anCov.Covar()
	if err != nil {
		return nil, nil, err
	}
	r.Note = fmt.Sprintf("%d one-hot columns", sigma.Dim())
	rows = append(rows, r)

	// Application loop per bulk.
	var apps []AppResult
	var model *ml.RidgeModel
	cfg := ml.DefaultRidgeConfig()
	st3, err := dataset.NewStream(s.db, dataset.StreamConfig{
		Relation: "Sales", Total: sc.StreamLen, DeleteRatio: 0.25, Seed: 63,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, bulk := range st3.Bulks(sc.BatchSize) {
		t0 := time.Now()
		if err := anMI.Apply(bulk); err != nil {
			return nil, nil, err
		}
		if err := anCov.Apply(bulk); err != nil {
			return nil, nil, err
		}
		maintain := time.Since(t0)

		t1 := time.Now()
		_, selected, err := anMI.SelectFeatures("unit_sales", 0.05)
		if err != nil {
			return nil, nil, err
		}
		var sigma *ml.SigmaMatrix
		model, sigma, err = anCov.Ridge("unit_sales", model, cfg)
		if err != nil {
			return nil, nil, err
		}
		tree, err := anMI.ChowLiu("item")
		if err != nil {
			return nil, nil, err
		}
		apps = append(apps, AppResult{
			Bulk: len(apps) + 1, Updates: len(bulk),
			MaintainDur: maintain, AppDur: time.Since(t1),
			Artifact: fmt.Sprintf("selected=%d rmse=%.2f chowliu(totalMI=%.2f)",
				len(selected), model.TrainRMSE(sigma), tree.TotalMI),
		})
	}
	return rows, apps, nil
}
