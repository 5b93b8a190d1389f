// Command regression reproduces the demo's Regression tab (Figure 2b):
// it maintains the generalized COVAR matrix over the synthetic Retailer
// 5-way join with mixed continuous/categorical features, and after every
// bulk of updates re-converges a ridge linear regression predicting
// inventoryunits by warm-started conjugate gradient on the COVAR normal
// equations — without ever materializing the training dataset.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/fivm"
	"repro/internal/dataset"
	"repro/internal/ml"
)

func main() {
	db := dataset.Retailer(dataset.DefaultRetailerConfig())

	var rels []fivm.RelationSpec
	for _, r := range db.Relations {
		rels = append(rels, fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs})
	}
	// The demo's feature set: label inventoryunits plus the item
	// attributes from Figure 2(b).
	features := []fivm.FeatureSpec{
		{Attr: "inventoryunits"}, // label (continuous)
		{Attr: "prize"},
		{Attr: "subcategory", Categorical: true},
		{Attr: "category", Categorical: true},
		{Attr: "categoryCluster", Categorical: true},
		{Attr: "avghhi"},
	}
	eng, err := fivm.Open(fivm.Config{Relations: rels, Features: features, Label: "inventoryunits"})
	if err != nil {
		log.Fatal(err)
	}
	an := eng.(*fivm.Analysis)
	start := time.Now()
	if err := an.Init(db.TupleMap()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial COVAR over the 5-way join computed in %v\n", time.Since(start).Round(time.Millisecond))

	cfg := ml.DefaultRidgeConfig()
	model, sigma, err := an.Ridge("inventoryunits", nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one-hot expanded feature space: %d columns over %d training tuples\n", sigma.Dim(), int(sigma.Count))
	fmt.Printf("initial fit: %d CG iterations, RMSE %.3f\n\n", model.Iterations, model.TrainRMSE(sigma))

	stream, err := dataset.NewStream(db, dataset.StreamConfig{
		Relation: "Inventory", Total: 30_000, DeleteRatio: 0.2, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bulk   updates   maintain    refit(iters)   RMSE    θ0")
	for i, bulk := range stream.Bulks(10_000) {
		t0 := time.Now()
		if err := an.Apply(bulk); err != nil {
			log.Fatal(err)
		}
		maintain := time.Since(t0)
		model, sigma, err = an.Ridge("inventoryunits", model, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d   %7d   %9v   %12d   %.3f   %+.3f\n",
			i+1, len(bulk), maintain.Round(time.Millisecond), model.Iterations,
			model.TrainRMSE(sigma), model.Intercept)
	}

	fmt.Println("\ntop weights by |θ|:")
	type wcol struct {
		label string
		w     float64
	}
	var ws []wcol
	for i, c := range sigma.Cols {
		if i == model.LabelCol {
			continue
		}
		ws = append(ws, wcol{c.Label(), model.Weights[i]})
	}
	for k := 0; k < 5 && k < len(ws); k++ {
		best := k
		for j := k + 1; j < len(ws); j++ {
			if abs(ws[j].w) > abs(ws[best].w) {
				best = j
			}
		}
		ws[k], ws[best] = ws[best], ws[k]
		fmt.Printf("  %-24s %+.5f\n", ws[k].label, ws[k].w)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
