// Command fivm-bench regenerates every evaluation artifact of the paper
// (DESIGN.md §3): Figure 1's worked example (e1), the §1 throughput
// claims (e2), the application tabs (e3–e6), the batch/aggregate sweeps
// (e7), and the ablations (a1, a3). It also runs the machine-readable
// performance suite (perf) and compares two result files, which is how
// CI gates performance regressions (docs/PERF.md).
//
// Usage:
//
//	fivm-bench -exp e2 -scale demo
//	fivm-bench -exp all -scale small
//	fivm-bench -exp perf -json BENCH_dev.json [-bench regex] [-benchtime 100ms]
//	fivm-bench compare [-max-rate-drop 0.15] [-max-alloc-growth 0.10] BENCH_baseline.json BENCH_dev.json
//	fivm-bench scalingcheck [-max-growth 3] BENCH_dev.json
//	fivm-bench parallelcheck [-min-speedup 2] [-json PARALLEL_dev.json] BENCH_dev.json
//	fivm-bench clustercheck [-min-speedup 1.5] [-json CLUSTERCHECK_dev.json] BENCH_dev.json
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
	"regexp"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/perf"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "scalingcheck" {
		os.Exit(runScalingCheck(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "parallelcheck" {
		os.Exit(runParallelCheck(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "clustercheck" {
		os.Exit(runClusterCheck(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		os.Exit(runLoadgen(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		os.Exit(runChaos(os.Args[2:]))
	}

	exp := flag.String("exp", "all", "experiment id: e1|e2|e3|e4|e5|e6|e7|e8|a1|a2|a3|a4|all, or perf")
	scale := flag.String("scale", "small", "workload scale: small|demo")
	jsonOut := flag.String("json", "", "perf: write machine-readable results to this file (e.g. BENCH_dev.json)")
	benchFilter := flag.String("bench", "", "perf: only run suite benchmarks matching this regexp")
	benchTime := flag.String("benchtime", "", "perf: per-benchmark measurement target (go test -benchtime syntax, e.g. 100ms or 10x)")
	flag.Parse()

	if *exp == "perf" {
		os.Exit(runPerf(*jsonOut, *benchFilter, *benchTime))
	}

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
		"a1": runA1, "a2": runA2, "a3": runA3, "a4": runA4,
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "a1", "a2", "a3", "a4"}
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

// runPerf executes the canonical benchmark suite (internal/perf) and
// prints one line per benchmark; with -json it also writes the
// machine-readable report that `fivm-bench compare` consumes.
func runPerf(jsonOut, benchFilter, benchTime string) int {
	var filter *regexp.Regexp
	if benchFilter != "" {
		var err error
		if filter, err = regexp.Compile(benchFilter); err != nil {
			fmt.Fprintf(os.Stderr, "fivm-bench: bad -bench regexp: %v\n", err)
			return 2
		}
	}
	rep, err := perf.Run(perf.Suite(), perf.Options{
		Filter:    filter,
		BenchTime: benchTime,
		Commit:    gitCommit(),
		Progress:  os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fivm-bench: %v\n", err)
		return 1
	}
	if jsonOut != "" {
		if err := rep.WriteJSON(jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "fivm-bench: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %d results to %s\n", len(rep.Results), jsonOut)
	}
	return 0
}

// runCompare diffs two perf reports and exits non-zero when the current
// one regresses beyond the thresholds — the CI gate.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	th := perf.DefaultThresholds()
	fs.Float64Var(&th.MaxRateDrop, "max-rate-drop", th.MaxRateDrop, "tolerated relative drop in updates/sec (ns/op growth where no rate metric exists)")
	fs.Float64Var(&th.MaxAllocGrowth, "max-alloc-growth", th.MaxAllocGrowth, "tolerated relative growth in allocs/op")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: fivm-bench compare [flags] baseline.json current.json")
		return 2
	}
	baseline, err := perf.ReadJSON(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fivm-bench: %v\n", err)
		return 2
	}
	current, err := perf.ReadJSON(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fivm-bench: %v\n", err)
		return 2
	}
	findings, ok := perf.Compare(baseline, current, th)
	perf.WriteFindings(os.Stdout, findings, ok)
	if !ok {
		return 1
	}
	return 0
}

// runScalingCheck gates the O(|delta|) latency claim within a single
// report: the UpdateLatencyScaling 100k-row ns/op must stay within a
// bounded factor of the 1k-row ns/op. Being a single-run property it is
// hardware-independent, so CI enforces it on every run regardless of
// what machine the committed baseline came from (docs/PERF.md).
func runScalingCheck(args []string) int {
	fs := flag.NewFlagSet("scalingcheck", flag.ExitOnError)
	maxGrowth := fs.Float64("max-growth", perf.DefaultMaxScalingGrowth, "tolerated 1k->100k ns/op growth factor")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fivm-bench scalingcheck [flags] report.json")
		return 2
	}
	rep, err := perf.ReadJSON(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fivm-bench: %v\n", err)
		return 2
	}
	findings, ok := perf.CheckScaling(rep, *maxGrowth)
	perf.WriteFindings(os.Stdout, findings, ok)
	if !ok {
		return 1
	}
	return 0
}

// runParallelCheck gates the multi-worker speedup claim within a single
// report (perf.CheckParallel): the 4-worker E2FIVM run must sustain at
// least min-speedup times the 1-worker throughput of the same suite
// invocation. Hardware-independent because both runs share the host; on
// hosts with fewer than 4 CPUs the check reports a skip note and
// passes. -json writes the findings machine-readably for CI artifacts.
func runParallelCheck(args []string) int {
	fs := flag.NewFlagSet("parallelcheck", flag.ExitOnError)
	minSpeedup := fs.Float64("min-speedup", perf.DefaultMinParallelSpeedup, "required 4-worker / 1-worker throughput ratio")
	jsonOut := fs.String("json", "", "write findings as JSON to this file")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fivm-bench parallelcheck [flags] report.json")
		return 2
	}
	rep, err := perf.ReadJSON(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fivm-bench: %v\n", err)
		return 2
	}
	findings, ok := perf.CheckParallel(rep, *minSpeedup)
	perf.WriteFindings(os.Stdout, findings, ok)
	if *jsonOut != "" {
		out := struct {
			GOMAXPROCS int            `json:"gomaxprocs"`
			MinSpeedup float64        `json:"min_speedup"`
			OK         bool           `json:"ok"`
			Findings   []perf.Finding `json:"findings"`
		}{rep.GOMAXPROCS, *minSpeedup, ok, findings}
		data, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fivm-bench: writing %s: %v\n", *jsonOut, err)
			return 2
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runClusterCheck gates the sharded-serving speedup claim within a
// single report (perf.CheckCluster): the 4-shard ClusterIngest run must
// sustain at least min-speedup times the 1-shard throughput of the same
// suite invocation. Like parallelcheck it is hardware-independent and
// reports a skip note (and passes) on hosts with fewer than 4 CPUs.
func runClusterCheck(args []string) int {
	fs := flag.NewFlagSet("clustercheck", flag.ExitOnError)
	minSpeedup := fs.Float64("min-speedup", perf.DefaultMinClusterSpeedup, "required 4-shard / 1-shard throughput ratio")
	jsonOut := fs.String("json", "", "write findings as JSON to this file")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fivm-bench clustercheck [flags] report.json")
		return 2
	}
	rep, err := perf.ReadJSON(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fivm-bench: %v\n", err)
		return 2
	}
	findings, ok := perf.CheckCluster(rep, *minSpeedup)
	perf.WriteFindings(os.Stdout, findings, ok)
	if *jsonOut != "" {
		out := struct {
			GOMAXPROCS int            `json:"gomaxprocs"`
			MinSpeedup float64        `json:"min_speedup"`
			OK         bool           `json:"ok"`
			Findings   []perf.Finding `json:"findings"`
		}{rep.GOMAXPROCS, *minSpeedup, ok, findings}
		data, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fivm-bench: writing %s: %v\n", *jsonOut, err)
			return 2
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runLoadgen drives mixed read/write HTTP traffic against a live
// fivm-serve instance and reports throughput plus client-side latency
// quantiles (internal/perf.RunLoadgen). The report always goes to
// stdout; -json additionally writes it to a file, which is how the CI
// serving smoke archives it next to BENCH_ci.json.
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

	rep, err := perf.RunLoadgen(perf.LoadgenConfig{
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

// gitCommit best-effort stamps reports with the working tree's commit.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
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
	for _, r := range rows {
		experiments.PrintThroughput(os.Stdout, []experiments.Throughput{r.Throughput})
	}
	fmt.Println("\nE7b — aggregate-count sweep (degree m of the COVAR ring)")
	rows, err = experiments.E7AggCount(sc, []int{2, 5, 10, 15, 19})
	if err != nil {
		return err
	}
	for _, r := range rows {
		experiments.PrintThroughput(os.Stdout, []experiments.Throughput{r.Throughput})
	}
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

func runA2(sc experiments.Scale) error {
	fmt.Println("A2 — ablation: maintaining gradients vs maintaining the join itself")
	rows, err := experiments.A2Factorization(sc)
	if err != nil {
		return err
	}
	experiments.PrintThroughput(os.Stdout, rows)
	return nil
}

func runA4(sc experiments.Scale) error {
	fmt.Println("A4 — ablation: full-degree vs ranged view payloads (Figure 2d's RingCofactor<d,idx,cnt>)")
	rows, err := experiments.A4RangedPayloads(sc, 20)
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
	for _, r := range rows {
		experiments.PrintThroughput(os.Stdout, []experiments.Throughput{r.Throughput})
	}
	return nil
}
