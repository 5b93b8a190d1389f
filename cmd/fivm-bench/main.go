// Command fivm-bench regenerates every evaluation artifact of the paper
// (docs/REPRODUCTION.md records one run): Figure 1's worked example
// (e1), the §1 throughput claims (e2), the application tabs (e3–e6), the
// batch/aggregate sweeps (e7), the Favorita database (e8), and the
// ablations (a1, a3). Every experiment runs in process, so an installed
// binary needs no source tree. It measures the engine alone; the served
// binaries are measured end to end by bench/ (see BENCHMARK.json).
//
// Usage:
//
//	fivm-bench -exp e2 -scale demo
//	fivm-bench -exp all -scale small
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"sync"

	"repro/internal/experiments"
)

func main() {
	ids := make([]string, len(experimentList))
	for i, e := range experimentList {
		ids[i] = e.id
	}
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(ids, "|")+"|all")
	scale := flag.String("scale", "small", "workload scale: small|demo")
	flag.Parse()
	usageError := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fivm-bench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		// flag.Parse stops at the first positional argument, so without
		// this a stray word would silently run every experiment.
		usageError("unexpected argument %q (fivm-bench takes only flags)", flag.Arg(0))
	}

	scales := map[string]func() experiments.Scale{"small": experiments.SmallScale, "demo": experiments.DemoScale}
	newScale, ok := scales[*scale]
	if !ok {
		usageError("unknown -scale %q (small|demo)", *scale)
	}
	sc := newScale()

	run := experimentList
	if *exp != "all" {
		i := slices.IndexFunc(run, func(e experiment) bool { return e.id == *exp })
		if i < 0 {
			usageError("unknown -exp %q", *exp)
		}
		run = run[i : i+1]
	}
	for _, e := range run {
		fmt.Printf("================ %s ================\n", strings.ToUpper(e.id))
		fmt.Println(e.title)
		if err := e.run(sc); err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		fmt.Println()
	}
}

// experiment is one -exp id: its title line(s) and what prints the rest.
type experiment struct {
	id, title string
	run       func(experiments.Scale) error
}

// experimentList is every experiment in the order -exp all runs them;
// the -exp help text and its lookup read it too.
var experimentList = []experiment{
	{"e1", "Figure 1 worked example (experiments.Figure1; see also\ngo test ./internal/view -run TestFigure1):", runE1},
	{"e2", "E2 — §1 claim: F-IVM vs DBToaster-style IVM vs re-evaluation", runE2},
	{"e3", "E3 — Figure 2a: model selection under update bulks (threshold 0.2)", retailerColumn(experiments.SelectionColumn)},
	{"e4", "E4 — Figure 2b: ridge regression re-convergence per bulk", retailerColumn(experiments.RegressionColumn)},
	{"e5", "E5 — Figure 2c: MI matrix + Chow-Liu tree per bulk (root ksn)", retailerColumn(experiments.ChowLiuColumn)},
	{"e6", "E6 — Figure 2d: view tree and M3 code for the Retailer query", runE6},
	{"e7", "E7a — batch-size sweep (COVAR m=5, 20% deletes)", runE7},
	{"e8", "E8 — the second demo database: Favorita (6-way join)", runE8},
	{"a1", "A1 — ablation: ring sharing (compound payload vs independent aggregate trees)", runA1},
	{"a3", "A3 — ablation: delete-ratio sweep (deletes cost the same as inserts)", runA3},
}

// retailerRun is the one Retailer tab run that E3–E6 each print one
// part of; every experiment in a process runs at the same scale.
var retailerRun struct {
	sync.Once
	m3   string
	rows []experiments.TabBulk
	err  error
}

func retailer(sc experiments.Scale) (m3 string, rows []experiments.TabBulk, err error) {
	r := &retailerRun
	r.Do(func() { r.m3, r.rows, r.err = experiments.PresetTabs("retailer", sc, 0.2) })
	return r.m3, r.rows, r.err
}

// retailerColumn prints one column of the Retailer tab run.
func retailerColumn(col func(experiments.TabBulk) string) func(experiments.Scale) error {
	return func(sc experiments.Scale) error {
		_, rows, err := retailer(sc)
		if err == nil {
			experiments.PrintTabs(os.Stdout, rows, col)
		}
		return err
	}
}

func runE1(experiments.Scale) error { return experiments.Figure1(os.Stdout) }

func runE6(sc experiments.Scale) error {
	m3, _, err := retailer(sc)
	if err == nil {
		fmt.Println(m3)
	}
	return err
}

func runE2(sc experiments.Scale) error {
	fmt.Printf("Retailer 5-way join, %d fact rows, %d updates (20%% deletes), batch %d, one goroutine\n\n",
		sc.InventoryRows, sc.StreamLen, sc.BatchSize)
	rows, err := experiments.E2(sc, 0.2)
	if err != nil {
		return err
	}
	experiments.PrintThroughput(os.Stdout, rows)
	fmt.Println()
	r, nAggs, err := experiments.E2Compound(sc, 0.2)
	if err != nil {
		return err
	}
	fmt.Printf("compound mixed-feature payload (%d one-hot scalar aggregates):\n", nAggs)
	experiments.PrintThroughput(os.Stdout, []experiments.Throughput{r})
	return nil
}

func runE7(sc experiments.Scale) error {
	rows, err := experiments.E7BatchSize(sc, []int{1, 10, 100, 1000, 10000})
	if err != nil {
		return err
	}
	experiments.PrintThroughput(os.Stdout, rows)
	fmt.Println("\nE7b — aggregate-count sweep (degree m of the COVAR ring)")
	rows, err = experiments.E7AggCount(sc, []int{2, 5, 10, 15, 19})
	if err != nil {
		return err
	}
	experiments.PrintThroughput(os.Stdout, rows)
	return nil
}

func runE8(sc experiments.Scale) error {
	rows, err := experiments.E8Throughput(sc)
	if err != nil {
		return err
	}
	experiments.PrintThroughput(os.Stdout, rows)
	fmt.Println()
	_, tabs, err := experiments.PresetTabs("favorita", sc, 0.2)
	if err != nil {
		return err
	}
	experiments.PrintTabs(os.Stdout, tabs, experiments.AllColumns)
	return nil
}

func runA1(sc experiments.Scale) error {
	rows, err := experiments.A1Sharing(sc, 5)
	if err != nil {
		return err
	}
	experiments.PrintThroughput(os.Stdout, rows)
	return nil
}

func runA3(sc experiments.Scale) error {
	rows, err := experiments.A3Deletes(sc, []float64{0, 0.25, 0.5})
	if err != nil {
		return err
	}
	experiments.PrintThroughput(os.Stdout, rows)
	return nil
}
