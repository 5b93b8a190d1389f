// Command fivm-demo is a terminal reproduction of the paper's web user
// interface (Figure 2). It loads a synthetic database (Retailer or
// Favorita), maintains the preset's MI and COVAR matrices under bulks of
// updates, and renders each tab after every bulk:
//
//	Input               — database, query, feature kinds
//	Model Selection     — MI ranking against a label with a threshold
//	Regression          — ridge model re-converged from the COVAR matrix
//	Chow-Liu Tree       — the tree over the MI matrix, rooted at a chosen node
//	Maintenance Strategy— the view tree and its M3 code
//
// The feature lists are the preset's (internal/daemon.Presets), and the
// tabs are computed by experiments.RunTabs, the run fivm-bench -exp
// e3…e6 and e8 print. A bad flag prints one error to stderr and exits
// with status 2 before any data is generated or loaded.
//
// Usage:
//
//	fivm-demo -db retailer -label inventoryunits -threshold 0.2 -bulks 3
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"repro/fivm"
	"repro/internal/daemon"
	"repro/internal/dataset"
	"repro/internal/experiments"
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

	p, ok := daemon.Presets[*dbName]
	if !ok {
		refuse("unknown -db %q (retailer|favorita)", *dbName)
	}
	if *label == "" {
		*label = p.Label
	}
	if *root == "" {
		*root = p.Root
	}
	var miAttrs []string
	for _, f := range p.MIFeatures {
		miAttrs = append(miAttrs, f.Attr)
	}
	switch {
	case !slices.Contains(miAttrs, *label):
		refuse("-label %s is not an MI feature of %s (%s)", *label, *dbName, strings.Join(miAttrs, ", "))
	case !slices.Contains(miAttrs, *root):
		refuse("-root %s is not an MI feature of %s (%s)", *root, *dbName, strings.Join(miAttrs, ", "))
	case *bulks < 0:
		refuse("-bulks %d is negative", *bulks)
	case *bulkSize <= 0:
		refuse("-bulk-size %d is not positive", *bulkSize)
	case !(*threshold >= 0 && *threshold <= math.MaxFloat64): // NaN fails both
		refuse("-threshold %v is negative or not finite", *threshold)
	}

	db := p.Generate(0)
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

	// === Input tab ===
	banner("Input")
	var relNames []string
	for _, r := range db.Relations {
		relNames = append(relNames, r.Name)
	}
	fmt.Printf("database: %s\nquery: SELECT <compound aggregate> FROM %s\n",
		db.Name, strings.Join(relNames, " NATURAL JOIN "))
	printFeatures("MI", p.MIFeatures)
	printFeatures("regression", p.Features)

	m3, tabs, err := experiments.RunTabs(experiments.TabsConfig{
		Preset: p, DB: db, Label: *label, Threshold: *threshold, Root: *root,
		Updates: *bulks * *bulkSize, BulkSize: *bulkSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range tabs {
		if t.Bulk == 0 {
			fmt.Printf("\ninitial evaluation (MI + COVAR): %v\n", t.Maintain.Round(time.Millisecond))
			// === Maintenance Strategy tab (static for the session) ===
			banner("Maintenance Strategy")
			fmt.Println(m3)
		} else {
			banner(fmt.Sprintf("Process Updates — bulk %d (%d updates, both matrices maintained in %v)",
				t.Bulk, t.Updates, t.Maintain.Round(time.Millisecond)))
		}

		// === Model Selection tab ===
		banner("Model Selection")
		fmt.Printf("label: %s, threshold: %.2f\n", *label, *threshold)
		for _, r := range t.Ranking {
			mark := " "
			if r.MI >= *threshold {
				mark = "*"
			}
			fmt.Printf("  %s %-18s %.4f\n", mark, r.Attr, r.MI)
		}
		fmt.Printf("selected: %v\n", t.Selected)

		// === Regression tab ===
		banner("Regression")
		if t.RidgeErr != nil {
			fmt.Printf("regression unavailable: %v\n", t.RidgeErr)
		} else {
			fmt.Printf("ridge over %d one-hot columns, %d CG iterations, train RMSE %.3f\n",
				t.Sigma.Dim(), t.Model.Iterations, t.Model.TrainRMSE(t.Sigma))
			fmt.Printf("θ0 = %+.4f\n", t.Model.Intercept)
		}

		// === Chow-Liu Tree tab ===
		banner("Chow-Liu Tree")
		fmt.Printf("root: %s, total MI: %.3f\n%s", *root, t.Tree.TotalMI, t.Tree)
	}
}

// refuse reports a bad flag and exits with status 2.
func refuse(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fivm-demo: "+format+"\n", args...)
	os.Exit(2)
}

func printFeatures(kind string, features []fivm.FeatureSpec) {
	fmt.Printf("%s features (%d):\n", kind, len(features))
	for _, f := range features {
		k := "continuous"
		if f.Categorical {
			k = "categorical"
		} else if f.BinWidth > 0 {
			k = fmt.Sprintf("binned(width=%v)", f.BinWidth)
		}
		fmt.Printf("  %-18s %s\n", f.Attr, k)
	}
}

func banner(title string) {
	fmt.Printf("\n——— %s ———\n", title)
}
