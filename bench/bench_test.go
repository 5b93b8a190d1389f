package main

import (
	"os"
	"testing"
)

// chdir moves the test into dir: the benchmark writes under its working
// directory (bench/out, .bench_build).
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

// The traced replay at a hundredth of the size, for all four workloads,
// in-process: every named layer metric must come out, and come out
// positive.
func TestTracedReplaySmoke(t *testing.T) {
	def, err := loadBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, t.TempDir())
	for _, w := range workloads {
		w.rows /= 100
		w.window /= 100
		w.batch = max(w.batch/10, 1)
		w.readEvery = 2
		out, err := traceWorkload(w, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !out.correct {
			t.Errorf("%s: the replayed engine disagrees with the from-scratch reference", w.name)
		}
		for _, m := range def.PerLayer {
			v, ok := out.values[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s missing", w.name, m.Name)
			case m.Name == "trace.overhead_share":
				// A difference of two timings; noise can push it below 0.
			case v <= 0:
				t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, v)
			}
		}
		if _, err := os.Stat("bench/out/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}

// The process-spawning end-to-end run, two seconds per workload. Off by
// default: tier-1 tests start no child processes.
func TestEndToEndSmoke(t *testing.T) {
	if os.Getenv("FIVM_BENCH_E2E") != "1" {
		t.Skip("set FIVM_BENCH_E2E=1 to build and spawn the servers")
	}
	chdir(t, "..") // the servers are built from the repository root
	def, err := loadBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer killAll()
	for _, w := range workloads {
		res, err := runE2E(w, 2, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %v", w.name, res.Broken)
		}
		for _, m := range def.EndToEnd {
			if res.Metrics[m.Name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, res.Metrics[m.Name])
			}
		}
	}
}
