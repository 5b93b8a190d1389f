package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDef is one named metric of BENCHMARK.json, the one place that
// fixes names, units, directions and regression bounds.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkJSON is the part of BENCHMARK.json the program reads: what
// an end-to-end run and a traced run must report.
type benchmarkJSON struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(path string) (benchmarkJSON, error) {
	var def benchmarkJSON
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &def)
	}
	if err == nil && (len(def.EndToEnd) == 0 || len(def.PerLayer) == 0) {
		err = fmt.Errorf("no metrics defined")
	}
	if err != nil {
		return def, fmt.Errorf("%s: %w (run from the repository root)", path, err)
	}
	return def, nil
}

// quartiles mirrors Python's statistics.quantiles(values, n=4), the
// method the acceptance protocol names.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := min(max(int(pos), 1), n-1)
		return xs[j-1] + (pos-float64(j))*(xs[j]-xs[j-1])
	}
	return at(1), at(2), at(3)
}

func loadResults(path string) (map[string][]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all []*result
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := map[string][]*result{}
	for _, r := range all {
		by[r.Workload] = append(by[r.Workload], r)
	}
	return by, nil
}

// compareFiles prints, per workload and gated metric, both sets' medians
// and spreads (interquartile range over median), the ratio B/A, the
// bound and a verdict. It returns 1 if any metric is worse.
func compareFiles(def benchmarkJSON, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	status := 0
	fmt.Printf("A = %s, B = %s; spread = (Q3-Q1)/median; ratio = median B / median A\n", pathA, pathB)
	fmt.Printf("%-16s %-14s %13s %7s %13s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "spread", "median B", "spread", "ratio", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Printf("%-16s missing from one of the sets\n", w.name)
			status = 1
			continue
		}
		for _, m := range def.EndToEnd {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-16s %-14s not measured in one of the sets\n", w.name, m.Name)
				status = 1
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			ratio := b2 / a2
			worsening := ratio - 1
			if m.Better == "higher" {
				worsening = 1 - ratio
			}
			verdict := "within"
			switch {
			case spreadA > m.Bound || spreadB > m.Bound:
				verdict = "unresolved"
			case worsening > m.Bound:
				verdict = "worse"
				status = 1
			case worsening < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-16s %-14s %13.6g %6.1f%% %13.6g %6.1f%% %7.4f %6.2f  %s\n",
				w.name, m.Name, a2, 100*spreadA, b2, 100*spreadB, ratio, m.Bound, verdict)
		}
		// failed_share has no bound: any increase is worse.
		fa, fb := failedShare(ra), failedShare(rb)
		verdict := "within"
		if fb > fa {
			verdict = "worse"
			status = 1
		}
		fmt.Printf("%-16s %-14s %13.6g %7s %13.6g %7s %7s %6s  %s\n", w.name, "failed_share", fa, "", fb, "", "", "none", verdict)
		for _, set := range [][]*result{ra, rb} {
			for _, r := range set {
				if !r.Correct {
					fmt.Printf("%-16s seed %d failed its checks: %v\n", w.name, r.Seed, r.Broken)
					status = 1
				}
				if d := r.Tail["drift"]; d < 0.9 || d > 1.1 {
					fmt.Printf("%-16s seed %d is not stationary: drift %.3f\n", w.name, r.Seed, d)
				}
			}
		}
	}
	return status
}

func metricValues(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func failedShare(rs []*result) float64 {
	var failed, requests int
	for _, r := range rs {
		failed += r.Failed
		requests += r.Requests
	}
	return float64(failed) / float64(max(requests, 1))
}
