// Command fivm-bench regenerates every evaluation artifact of the paper
// (docs/REPRODUCTION.md records one run): Figure 1's worked example
// (e1), the §1 throughput claims (e2), the application tabs (e3–e6), the
// batch/aggregate sweeps (e7), the Favorita database (e8), and the
// ablations (a1, a3). It measures the engine in-process; the served
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
	"os/exec"
	"strings"
	"sync"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: e1|e2|e3|e4|e5|e6|e7|e8|a1|a3|all")
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

	// E3–E6 each print one part of the same Retailer tab run.
	retailer := sync.OnceValues(func() (tabRun, error) {
		m3, rows, err := experiments.PresetTabs("retailer", sc, 0.2)
		return tabRun{m3, rows}, err
	})
	column := func(title string, col func(experiments.TabBulk) string) func(experiments.Scale) error {
		return func(experiments.Scale) error {
			fmt.Println(title)
			r, err := retailer()
			if err != nil {
				return err
			}
			experiments.PrintTabs(os.Stdout, r.rows, col)
			return nil
		}
	}
	run := map[string]func(experiments.Scale) error{
		"e1": runE1, "e2": runE2,
		"e3": column("E3 — Figure 2a: model selection under update bulks (threshold 0.2)", experiments.SelectionColumn),
		"e4": column("E4 — Figure 2b: ridge regression re-convergence per bulk", experiments.RegressionColumn),
		"e5": column("E5 — Figure 2c: MI matrix + Chow-Liu tree per bulk (root ksn)", experiments.ChowLiuColumn),
		"e6": func(experiments.Scale) error {
			fmt.Println("E6 — Figure 2d: view tree and M3 code for the Retailer query")
			r, err := retailer()
			if err != nil {
				return err
			}
			fmt.Println(r.m3)
			return nil
		},
		"e7": runE7, "e8": runE8, "a1": runA1, "a3": runA3,
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "a1", "a3"}
	} else if _, ok := run[*exp]; !ok {
		usageError("unknown -exp %q", *exp)
	}
	for _, id := range ids {
		fmt.Printf("================ %s ================\n", strings.ToUpper(id))
		if err := run[id](sc); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Println()
	}
}

// tabRun is one preset's tab run: the M3 code and the per-bulk tabs.
type tabRun struct {
	m3   string
	rows []experiments.TabBulk
}

// runE1 replays Figure 1 by delegating to the quickstart example, which
// prints the toy database's payloads under all four rings.
func runE1(experiments.Scale) error {
	fmt.Println("Figure 1 worked example (see also examples/quickstart and")
	fmt.Println("go test ./internal/view -run TestFigure1):")
	if _, err := os.Stat("examples/quickstart"); err != nil {
		// No source tree here (e.g. an installed binary): point at it.
		fmt.Println("  (run examples/quickstart from the repository root for the full output)")
		return nil
	}
	cmd := exec.Command("go", "run", "./examples/quickstart")
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

func runE2(sc experiments.Scale) error {
	fmt.Println("E2 — §1 claim: F-IVM vs DBToaster-style IVM vs re-evaluation")
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
	fmt.Println("E7a — batch-size sweep (COVAR m=5, 20% deletes)")
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
	fmt.Println("E8 — the second demo database: Favorita (6-way join)")
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
	fmt.Println("A1 — ablation: ring sharing (compound payload vs independent aggregate trees)")
	rows, err := experiments.A1Sharing(sc, 5)
	if err != nil {
		return err
	}
	experiments.PrintThroughput(os.Stdout, rows)
	return nil
}

func runA3(sc experiments.Scale) error {
	fmt.Println("A3 — ablation: delete-ratio sweep (deletes cost the same as inserts)")
	rows, err := experiments.A3Deletes(sc, []float64{0, 0.25, 0.5})
	if err != nil {
		return err
	}
	experiments.PrintThroughput(os.Stdout, rows)
	return nil
}
