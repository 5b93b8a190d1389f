// Command fivm-demo is a terminal reproduction of the paper's web user
// interface (Figure 2). It loads a synthetic database (Retailer or
// Favorita), maintains the MI and COVAR matrices under bulks of
// updates, and renders each tab after every bulk:
//
//	Input               — database, query, feature kinds
//	Model Selection     — MI ranking against a label with a threshold
//	Regression          — ridge model re-converged from the COVAR matrix
//	Chow-Liu Tree       — MI matrix and the tree rooted at a chosen node
//	Maintenance Strategy— the view tree and its M3 code
//
// Usage:
//
//	fivm-demo -db retailer -label inventoryunits -threshold 0.2 -bulks 3
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/fivm"
	"repro/internal/daemon"
	"repro/internal/dataset"
	"repro/internal/ml"
)

func main() {
	dbName := flag.String("db", "retailer", "database: retailer|favorita")
	label := flag.String("label", "", "label attribute (default: the fact measure)")
	threshold := flag.Float64("threshold", 0.2, "MI threshold for model selection")
	bulks := flag.Int("bulks", 3, "number of update bulks to process")
	bulkSize := flag.Int("bulk-size", 10_000, "updates per bulk")
	root := flag.String("root", "", "Chow-Liu root attribute (default: the fact key)")
	csvIn := flag.String("csv-dir", "", "load the database from typed-header CSVs in this directory instead of generating it")
	csvOut := flag.String("dump-csv", "", "write the (generated) database as typed-header CSVs to this directory and exit")
	flag.Parse()

	var (
		db         *dataset.Database
		miFeatures []fivm.FeatureSpec // all categorical/binned, for MI
		factRel    string
	)
	switch *dbName {
	case "retailer":
		db = dataset.Retailer(dataset.DefaultRetailerConfig())
		factRel = "Inventory"
		if *label == "" {
			*label = "inventoryunits"
		}
		if *root == "" {
			*root = "ksn"
		}
		miFeatures = []fivm.FeatureSpec{
			{Attr: "inventoryunits", BinWidth: 50},
			{Attr: "ksn", Categorical: true},
			{Attr: "prize", BinWidth: 10},
			{Attr: "subcategory", Categorical: true},
			{Attr: "category", Categorical: true},
			{Attr: "categoryCluster", Categorical: true},
			{Attr: "zip", Categorical: true},
			{Attr: "avghhi", BinWidth: 20_000},
			{Attr: "population", BinWidth: 25_000},
			{Attr: "maxtemp", BinWidth: 5},
			{Attr: "rain", Categorical: true},
			{Attr: "snow", Categorical: true},
		}
	case "favorita":
		db = dataset.Favorita(dataset.DefaultFavoritaConfig())
		factRel = "Sales"
		if *label == "" {
			*label = "unit_sales"
		}
		if *root == "" {
			*root = "item"
		}
		miFeatures = []fivm.FeatureSpec{
			{Attr: "unit_sales", BinWidth: 10},
			{Attr: "item", Categorical: true},
			{Attr: "family", Categorical: true},
			{Attr: "class", Categorical: true},
			{Attr: "perishable", Categorical: true},
			{Attr: "store", Categorical: true},
			{Attr: "city", Categorical: true},
			{Attr: "cluster", Categorical: true},
			{Attr: "onpromotion", Categorical: true},
			{Attr: "oilprice", BinWidth: 5},
			{Attr: "holiday_type", Categorical: true},
			{Attr: "transactions", BinWidth: 500},
		}
	default:
		log.Fatalf("unknown database %q (retailer|favorita)", *dbName)
	}

	if *csvOut != "" {
		if err := dataset.WriteCSV(db, *csvOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d relations to %s\n", len(db.Relations), *csvOut)
		return
	}
	if *csvIn != "" {
		names := make([]string, len(db.Relations))
		for i, r := range db.Relations {
			names[i] = r.Name
		}
		loaded, err := dataset.ReadCSV(*csvIn, names)
		if err != nil {
			log.Fatal(err)
		}
		loaded.Name = db.Name
		loaded.Categorical = db.Categorical
		db = loaded
	}

	var rels []fivm.RelationSpec
	var relNames []string
	for _, r := range db.Relations {
		rels = append(rels, fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs})
		relNames = append(relNames, r.Name)
	}

	// === Input tab ===
	banner("Input")
	fmt.Printf("database: %s\nquery: SELECT <compound aggregate> FROM %s\n",
		db.Name, strings.Join(relNames, " NATURAL JOIN "))
	fmt.Printf("MI features (%d):\n", len(miFeatures))
	for _, f := range miFeatures {
		kind := "continuous"
		if f.Categorical {
			kind = "categorical"
		} else if f.BinWidth > 0 {
			kind = fmt.Sprintf("binned(width=%v)", f.BinWidth)
		}
		fmt.Printf("  %-18s %s\n", f.Attr, kind)
	}

	// The COVAR engine is fivm-serve's preset for the database, over the
	// relations loaded here. Its label is dropped: the Regression tab
	// fits ridge itself, and may be asked for a label the preset's
	// features do not carry.
	covCfg, _, err := daemon.BuildEngineConfig(*dbName, 0, false, "", "", "", "", "", *label)
	if err != nil {
		log.Fatal(err)
	}
	covCfg.Relations, covCfg.Label = rels, ""
	an := open(fivm.Config{Relations: rels, Features: miFeatures})
	anCov := open(covCfg)
	t0 := time.Now()
	if err := an.Init(db.TupleMap()); err != nil {
		log.Fatal(err)
	}
	if err := anCov.Init(db.TupleMap()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninitial evaluation (MI + COVAR): %v\n", time.Since(t0).Round(time.Millisecond))

	// === Maintenance Strategy tab (static for the session) ===
	banner("Maintenance Strategy")
	fmt.Println(an.M3())

	var model *ml.RidgeModel
	cfg := ml.DefaultRidgeConfig()
	showTabs := func() {
		// === Model Selection tab ===
		banner("Model Selection")
		ranking, selected, err := an.SelectFeatures(*label, *threshold)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("label: %s, threshold: %.2f\n", *label, *threshold)
		for _, r := range ranking {
			mark := " "
			if r.MI >= *threshold {
				mark = "*"
			}
			fmt.Printf("  %s %-18s %.4f\n", mark, r.Attr, r.MI)
		}
		fmt.Printf("selected: %v\n", selected)

		// === Regression tab === (driven by the separate COVAR engine,
		// whose label stays continuous).
		banner("Regression")
		var sigma *ml.SigmaMatrix
		model, sigma, err = anCov.Ridge(*label, model, cfg)
		if err != nil {
			fmt.Printf("regression unavailable: %v\n", err)
		} else {
			fmt.Printf("ridge over %d one-hot columns, %d CG iterations, train RMSE %.3f\n",
				sigma.Dim(), model.Iterations, model.TrainRMSE(sigma))
			fmt.Printf("θ0 = %+.4f\n", model.Intercept)
		}

		// === Chow-Liu Tree tab ===
		banner("Chow-Liu Tree")
		tree, err := an.ChowLiu(*root)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("root: %s, total MI: %.3f\n%s", *root, tree.TotalMI, tree)
	}
	showTabs()

	stream, err := dataset.NewStream(db, dataset.StreamConfig{
		Relation: factRel, Total: *bulks * *bulkSize, DeleteRatio: 0.25, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, bulk := range stream.Bulks(*bulkSize) {
		t0 := time.Now()
		if err := an.Apply(bulk); err != nil {
			log.Fatal(err)
		}
		if err := anCov.Apply(bulk); err != nil {
			log.Fatal(err)
		}
		banner(fmt.Sprintf("Process Updates — bulk %d (%d updates, both matrices maintained in %v)",
			i+1, len(bulk), time.Since(t0).Round(time.Millisecond)))
		showTabs()
	}
}

// open builds the analysis engine cfg describes.
func open(cfg fivm.Config) *fivm.Analysis {
	eng, err := fivm.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return eng.(*fivm.Analysis)
}

func banner(title string) {
	fmt.Printf("\n——— %s ———\n", title)
}
