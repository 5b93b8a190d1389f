package ml_test

import (
	"testing"

	"repro/fivm"
	"repro/internal/daemon"
	"repro/internal/dataset"
	"repro/internal/ml"
)

// TestSparseSigmaRetailerReplay replays 50 batches of the Retailer
// preset's Inventory stream, deletes included, into the preset's
// analysis engine and holds every published Σ, warm-started ridge refit
// and training RMSE to the dense reference.
func TestSparseSigmaRetailerReplay(t *testing.T) {
	const rows, batches, batch = 5_000, 50, 100
	cfg, data, err := daemon.BuildEngineConfig("retailer", rows, true, "", "", "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(data); err != nil {
		t.Fatal(err)
	}
	rcfg := dataset.DefaultRetailerConfig()
	rcfg.InventoryRows = rows
	st, err := dataset.NewStream(dataset.Retailer(rcfg), dataset.StreamConfig{
		Relation: "Inventory", Total: batches * batch, DeleteRatio: 0.2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var prev fivm.Model
	for i, ups := range st.Bulks(batch) {
		if err := eng.Apply(ups); err != nil {
			t.Fatal(err)
		}
		var warm *ml.RidgeModel
		if p, ok := prev.(*fivm.AnalysisModel); ok {
			warm = p.Model.Clone()
		}
		m := eng.PublishModel(prev).(*fivm.AnalysisModel)
		if m.Model == nil {
			t.Fatalf("batch %d: no model: %s", i, m.FitErr)
		}
		ml.CheckSparseSigma(t, m.Payload, m.Features, m.Sigma, m.Model, warm, ml.DefaultRidgeConfig())
		prev = m
	}
}
