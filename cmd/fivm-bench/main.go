// Command fivm-bench regenerates every evaluation artifact of the paper
// (docs/REPRODUCTION.md records one run): Figure 1's worked example
// (e1), the §1 throughput claims (e2), the application tabs (e3–e6), the
// batch/aggregate sweeps (e7), the Favorita database (e8), and the
// ablations (a1, a3). It also drives HTTP load against a live server
// (loadgen) and proxies one with injected network faults (chaos), which
// is how CI smoke-tests the real binaries.
//
// Usage:
//
//	fivm-bench -exp e2 -scale demo
//	fivm-bench -exp all -scale small
//	fivm-bench loadgen -url http://localhost:8344 -duration 10s -concurrency 8 -write-ratio 0.5 [-json LOADGEN.json]
//	fivm-bench chaos -target 127.0.0.1:8351 [-listen 127.0.0.1:9351] [-seed 1] [-weights none=90,reset=5,blackhole=5] [-partition-every 5s] [-json CHAOS.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		os.Exit(runLoadgen(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		os.Exit(runChaos(os.Args[2:]))
	}

	exp := flag.String("exp", "all", "experiment id: e1|e2|e3|e4|e5|e6|e7|e8|a1|a3|all")
	scale := flag.String("scale", "small", "workload scale: small|demo")
	flag.Parse()

	var sc experiments.Scale
	switch *scale {
	case "small":
		sc = experiments.SmallScale()
	case "demo":
		sc = experiments.DemoScale()
	default:
		log.Fatalf("unknown scale %q (small|demo)", *scale)
	}

	run := map[string]func(experiments.Scale) error{
		"e1": runE1, "e2": runE2, "e3": runE3, "e4": runE4,
		"e5": runE5, "e6": runE6, "e7": runE7, "e8": runE8,
		"a1": runA1, "a3": runA3,
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "a1", "a3"}
	}
	for _, id := range ids {
		fn, ok := run[id]
		if !ok {
			log.Fatalf("unknown experiment %q", id)
		}
		fmt.Printf("================ %s ================\n", strings.ToUpper(id))
		if err := fn(sc); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Println()
	}
}

// runLoadgen drives mixed read/write HTTP traffic against a live
// fivm-serve instance and reports throughput plus client-side latency
// quantiles (RunLoadgen). The report always goes to stdout; -json
// additionally writes it to a file, which is how the CI serving smoke
// archives it.
func runLoadgen(args []string) int {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	url := fs.String("url", "http://localhost:8344", "base URL of the fivm-serve instance")
	duration := fs.Duration("duration", 10*time.Second, "how long to generate load")
	concurrency := fs.Int("concurrency", 8, "number of client goroutines")
	writeRatio := fs.Float64("write-ratio", 0.5, "fraction of requests that are POST /v1/update (rest are GET /v1/model)")
	batch := fs.Int("batch", 8, "tuples per write request")
	seed := fs.Int64("seed", 1, "RNG seed for the generated tuple stream")
	retries := fs.Int("retries", 0, "client retries per request (0 = a fault counts as an error; >0 = chaos mode, batch-ID dedup absorbs redeliveries)")
	jsonOut := fs.String("json", "", "also write the JSON report to this file")
	fs.Parse(args)

	rep, err := RunLoadgen(LoadgenConfig{
		URL:         *url,
		Duration:    *duration,
		Concurrency: *concurrency,
		WriteRatio:  *writeRatio,
		BatchSize:   *batch,
		Seed:        *seed,
		Retries:     *retries,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fivm-bench: %v\n", err)
		return 1
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fivm-bench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "fivm-bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// runE1 replays Figure 1 by delegating to the quickstart example, which
// prints the toy database's payloads under all four rings.
func runE1(experiments.Scale) error {
	fmt.Println("Figure 1 worked example (see also examples/quickstart and")
	fmt.Println("go test ./internal/view -run TestFigure1):")
	cmd := exec.Command("go", "run", "./examples/quickstart")
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		// Fall back to a pointer when the source tree is unavailable
		// (e.g. installed binary).
		fmt.Println("  (run examples/quickstart from the repository root for the full output)")
	}
	return nil
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

func runE3(sc experiments.Scale) error {
	fmt.Println("E3 — Figure 2a: model selection under update bulks (threshold 0.2)")
	rows, err := experiments.E3ModelSelection(sc, 0.2)
	if err != nil {
		return err
	}
	experiments.PrintAppResults(os.Stdout, rows)
	return nil
}

func runE4(sc experiments.Scale) error {
	fmt.Println("E4 — Figure 2b: ridge regression re-convergence per bulk")
	rows, err := experiments.E4Regression(sc)
	if err != nil {
		return err
	}
	experiments.PrintAppResults(os.Stdout, rows)
	return nil
}

func runE5(sc experiments.Scale) error {
	fmt.Println("E5 — Figure 2c: MI matrix + Chow-Liu tree per bulk (root ksn)")
	rows, err := experiments.E5ChowLiu(sc)
	if err != nil {
		return err
	}
	experiments.PrintAppResults(os.Stdout, rows)
	return nil
}

func runE6(sc experiments.Scale) error {
	fmt.Println("E6 — Figure 2d: view tree and M3 code for the Retailer query")
	m3, err := experiments.E6Maintenance(sc)
	if err != nil {
		return err
	}
	fmt.Println(m3)
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
	rows, apps, err := experiments.E8Favorita(sc)
	if err != nil {
		return err
	}
	experiments.PrintThroughput(os.Stdout, rows)
	fmt.Println()
	experiments.PrintAppResults(os.Stdout, apps)
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
