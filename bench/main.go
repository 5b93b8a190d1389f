// Command bench is the repository's one benchmark: four socket-level
// workloads against the real fivm-serve and fivm-cluster binaries, a
// fixed set of named end-to-end metrics, and a traced in-process replay
// that attributes the same stream's cost to each layer. README.md in
// this directory defines every workload and metric.
//
//	bash bench/run.sh --workload ingest-covar --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload ingest-covar --seed 1 --seconds 10 --trace 1
//	go run ./bench -compare bench/results/pr11-a.json bench/results/pr11-b.json
//
// Without -workload every workload runs in turn. The last line of
// standard output is the run's (or the last run's) result as one JSON
// object; everything else goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// environment is recorded with every result, so numbers from different
// machines are never compared by accident.
type environment struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	Connections int    `json:"connections"`
}

func currentEnvironment() environment {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      commit,
		Connections: connections,
	}
}

// report is the line the driver reads.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run measured, before it is cut down to the metrics
// BENCHMARK.json names.
type outcome struct {
	correct           bool
	attempted, failed int
	values            map[string]float64
}

func (o outcome) report(defs []metricDef) (report, error) {
	rep := report{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]reportValue{}}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok {
			return rep, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rep.Metrics[d.Name] = reportValue{Value: v, Unit: d.Unit}
	}
	return rep, nil
}

// printSorted writes a block of named numbers to standard error.
func printSorted(title string, values map[string]float64) {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "  %s:\n", title)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "    %-34s %.6g\n", n, values[n])
	}
}

// appendResult adds res to the JSON array in path.
func appendResult(path string, res *result) error {
	var all []*result
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(append(all, res), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run (default: all)")
	seed := flag.Int64("seed", 1, "seed of the generated database and update stream")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1: run the traced in-process layer replay instead of the end-to-end run")
	jsonPath := flag.String("json", "", "append each end-to-end result to this JSON file")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	flag.Parse()

	def, err := loadBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(def, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-json FILE]")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		todo = []workload{w}
	}

	killOnSignal()
	defer killAll() // also runs when a panic unwinds through here
	status := 0
	for _, w := range todo {
		var out outcome
		var err error
		defs := def.EndToEnd
		if *trace == 1 {
			defs = def.PerLayer
			out, err = traceWorkload(w, *seed, *seconds)
		} else {
			out, err = measureWorkload(w, *seed, *seconds, *jsonPath)
		}
		var rep report
		if err == nil {
			rep, err = out.report(defs)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if !rep.Correct {
			status = 1
		}
		line, _ := json.Marshal(rep)
		fmt.Println(string(line))
	}
	return status
}

func measureWorkload(w workload, seed int64, seconds int, jsonPath string) (outcome, error) {
	res, err := runE2E(w, seed, seconds)
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d seconds=%d requests=%d failed=%d correct=%v\n",
		w.name, seed, seconds, res.Requests, res.Failed, res.Correct)
	for _, b := range res.Broken {
		fmt.Fprintf(os.Stderr, "  BROKEN: %s\n", b)
	}
	printSorted("end to end", res.Metrics)
	printSorted("tail (not gated)", res.Tail)
	printSorted("pipeline counters over the timed window", res.Counts)
	if data, err := json.Marshal(res); err == nil {
		_ = os.WriteFile(lastE2EPath(w.name), data, 0o644) // only feeds the traced run's comparison
	}
	if jsonPath != "" {
		if err := appendResult(jsonPath, res); err != nil {
			return outcome{}, err
		}
	}
	return outcome{res.Correct, res.Requests, res.Failed, res.Metrics}, nil
}
