package perf

import (
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Suite() {
		if b.Name == "" || b.Fn == nil {
			t.Fatalf("suite entry %+v is incomplete", b)
		}
		if seen[b.Name] {
			t.Fatalf("duplicate suite benchmark name %q", b.Name)
		}
		seen[b.Name] = true
	}
	// The wrappers in bench_test.go rely on these names existing.
	for _, name := range []string{"E2FIVM", "E1Figure1Delta", "ServeIngest"} {
		if !seen[name] {
			t.Errorf("suite is missing %q", name)
		}
	}
}

// TestRunTinySuite exercises the runner end-to-end on a synthetic
// benchmark: JSON round-trip included. The real suite is too slow for
// unit tests; CI runs it through fivm-bench.
func TestRunTinySuite(t *testing.T) {
	tiny := []Bench{{Name: "tiny/alloc", Fn: func(b *testing.B) {
		var sink []byte
		for i := 0; i < b.N; i++ {
			sink = make([]byte, 64)
		}
		_ = sink
		b.ReportMetric(12345, "updates/sec")
	}}}
	rep, err := Run(tiny, Options{BenchTime: "10x", Commit: "deadbeef"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Name != "tiny/alloc" || r.UpdatesPerSec != 12345 || r.Commit != "deadbeef" {
		t.Fatalf("unexpected result %+v", r)
	}
	if r.AllocsPerOp < 1 {
		t.Fatalf("allocs/op = %d, want >= 1", r.AllocsPerOp)
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 || back.Results[0] != r || back.Commit != "deadbeef" {
		t.Fatalf("JSON round-trip mismatch: %+v", back)
	}
}

// TestServeIngestSurvivesSlowWriter: ServeIngest fires single-tuple
// Ingest calls without waiting for them, so on one CPU the loop fills
// the 256-slot queue long before the writer runs. The entry must ride
// that out the way a client rides out a 429 and still report a result —
// the CI perf job must not depend on the runner out-running the writer.
func TestServeIngestSurvivesSlowWriter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep, err := Run([]Bench{{Name: "ServeIngest", Fn: Named("ServeIngest")}}, Options{BenchTime: "5000x"})
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.Results[0]; r.UpdatesPerSec <= 0 || r.NsPerOp <= 0 {
		t.Fatalf("ServeIngest reported %+v, want a non-zero result", r)
	}
}

func TestRunFilter(t *testing.T) {
	tiny := []Bench{
		{Name: "a/one", Fn: func(b *testing.B) {}},
		{Name: "b/two", Fn: func(b *testing.B) {}},
	}
	rep, err := Run(tiny, Options{BenchTime: "1x", Filter: regexp.MustCompile(`^b/`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "b/two" {
		t.Fatalf("filter selected %+v", rep.Results)
	}
	if _, err := Run(tiny, Options{BenchTime: "1x", Filter: regexp.MustCompile(`nothing`)}); err == nil {
		t.Fatal("empty filter result should error")
	}
}

func report(results ...Result) *Report {
	return &Report{Schema: SchemaVersion, Results: results}
}

func TestCompareWithinThresholds(t *testing.T) {
	base := report(
		Result{Name: "x", UpdatesPerSec: 100_000, AllocsPerOp: 1000},
		Result{Name: "y", NsPerOp: 500, AllocsPerOp: 10},
	)
	cur := report(
		Result{Name: "x", UpdatesPerSec: 90_000, AllocsPerOp: 1050}, // -10% rate, +5% allocs
		Result{Name: "y", NsPerOp: 540, AllocsPerOp: 12},            // +8% ns, +2 allocs under floor
	)
	findings, ok := Compare(base, cur, DefaultThresholds())
	if !ok {
		t.Fatalf("expected pass, findings: %+v", findings)
	}
	if len(findings) != 0 {
		t.Fatalf("expected no findings, got %+v", findings)
	}
}

func TestCompareRateRegression(t *testing.T) {
	base := report(Result{Name: "x", UpdatesPerSec: 100_000, AllocsPerOp: 1000})
	cur := report(Result{Name: "x", UpdatesPerSec: 80_000, AllocsPerOp: 1000}) // -20%
	findings, ok := Compare(base, cur, DefaultThresholds())
	if ok || len(findings) != 1 || !findings[0].IsRegression() {
		t.Fatalf("expected one regression, got ok=%v findings=%+v", ok, findings)
	}
}

func TestCompareNsFallbackRegression(t *testing.T) {
	// No rate metric on either side: ns/op growth must gate instead.
	base := report(Result{Name: "x", NsPerOp: 1000, AllocsPerOp: 100})
	cur := report(Result{Name: "x", NsPerOp: 1300, AllocsPerOp: 100}) // +30%
	if _, ok := Compare(base, cur, DefaultThresholds()); ok {
		t.Fatal("expected ns/op regression")
	}
}

func TestCompareAllocRegression(t *testing.T) {
	base := report(Result{Name: "x", UpdatesPerSec: 1000, AllocsPerOp: 1000})
	cur := report(Result{Name: "x", UpdatesPerSec: 1000, AllocsPerOp: 1200}) // +20%
	findings, ok := Compare(base, cur, DefaultThresholds())
	if ok || len(findings) != 1 {
		t.Fatalf("expected alloc regression, got ok=%v findings=%+v", ok, findings)
	}
	// The absolute floor forgives small counts: 10 -> 20 is +100% but
	// only +10 allocs.
	base = report(Result{Name: "x", UpdatesPerSec: 1000, AllocsPerOp: 10})
	cur = report(Result{Name: "x", UpdatesPerSec: 1000, AllocsPerOp: 20})
	if _, ok := Compare(base, cur, DefaultThresholds()); !ok {
		t.Fatal("alloc floor should forgive +10 allocs on a tiny benchmark")
	}
}

func TestCompareEnvMismatchSkipsRateNotAllocs(t *testing.T) {
	base := report(Result{Name: "x", UpdatesPerSec: 1_000_000, AllocsPerOp: 1000})
	base.GOMAXPROCS = 1
	cur := report(Result{Name: "x", UpdatesPerSec: 100, AllocsPerOp: 1000}) // -99.99% rate
	cur.GOMAXPROCS = 4
	findings, ok := Compare(base, cur, DefaultThresholds())
	if !ok {
		t.Fatalf("rate drop across differing GOMAXPROCS must not fail: %+v", findings)
	}
	if len(findings) != 1 || findings[0].IsRegression() {
		t.Fatalf("expected one environment note, got %+v", findings)
	}
	// Allocations remain enforced across environments.
	cur.Results[0].AllocsPerOp = 2000
	if _, ok := Compare(base, cur, DefaultThresholds()); ok {
		t.Fatal("alloc regression must still fail across environments")
	}
}

func TestCompareMissingRateMetricNotes(t *testing.T) {
	base := report(Result{Name: "x", UpdatesPerSec: 1000, NsPerOp: 100, AllocsPerOp: 10})
	cur := report(Result{Name: "x", NsPerOp: 105, AllocsPerOp: 10}) // rate metric vanished
	findings, ok := Compare(base, cur, DefaultThresholds())
	if !ok {
		t.Fatalf("ns/op within budget must pass: %+v", findings)
	}
	if len(findings) != 1 || findings[0].IsRegression() {
		t.Fatalf("expected a missing-metric note, got %+v", findings)
	}
	// And the ns/op fallback still gates.
	cur.Results[0].NsPerOp = 200
	if _, ok := Compare(base, cur, DefaultThresholds()); ok {
		t.Fatal("ns/op regression must fail after rate metric vanished")
	}
}

func TestCompareMismatchedSets(t *testing.T) {
	base := report(Result{Name: "gone", UpdatesPerSec: 1}, Result{Name: "kept", UpdatesPerSec: 1})
	cur := report(Result{Name: "kept", UpdatesPerSec: 1}, Result{Name: "new", UpdatesPerSec: 1})
	findings, ok := Compare(base, cur, DefaultThresholds())
	if !ok {
		t.Fatalf("set drift must not fail the gate: %+v", findings)
	}
	if len(findings) != 2 {
		t.Fatalf("expected two findings, got %+v", findings)
	}
	kinds := map[string]FindingKind{}
	for _, f := range findings {
		if f.IsRegression() {
			t.Fatalf("drift finding wrongly marked regression: %+v", f)
		}
		kinds[f.Name] = f.Kind
	}
	if kinds["new"] != FindingAddition {
		t.Fatalf("candidate-only benchmark should be an addition, got %q", kinds["new"])
	}
	if kinds["gone"] != FindingRemoval {
		t.Fatalf("baseline-only benchmark should be a removal, got %q", kinds["gone"])
	}
}

// TestCheckScalingFlatCurvePasses: the single-run flatness gate passes
// a curve within the growth budget and reports each family as a note.
func TestCheckScalingFlatCurvePasses(t *testing.T) {
	rep := report(
		Result{Name: "UpdateLatencyScaling/count/1k", NsPerOp: 13_000},
		Result{Name: "UpdateLatencyScaling/count/10k", NsPerOp: 15_000},
		Result{Name: "UpdateLatencyScaling/count/100k", NsPerOp: 21_000},
		Result{Name: "UpdateLatencyScaling/covar/1k", NsPerOp: 17_000},
		Result{Name: "UpdateLatencyScaling/covar/100k", NsPerOp: 32_000},
		Result{Name: "E2FIVM", NsPerOp: 1},
	)
	findings, ok := CheckScaling(rep, DefaultMaxScalingGrowth)
	if !ok {
		t.Fatalf("flat curve must pass: %+v", findings)
	}
	if len(findings) != 2 {
		t.Fatalf("expected one note per family, got %+v", findings)
	}
	for _, f := range findings {
		if f.Kind != FindingNote {
			t.Fatalf("flat family should be a note: %+v", f)
		}
	}
}

// TestCheckScalingLinearCurveFails: a curve that grows like the
// pre-index build-and-scan path (~20x and up) must fail the gate even
// though it is a single-run, baseline-free check.
func TestCheckScalingLinearCurveFails(t *testing.T) {
	rep := report(
		Result{Name: "UpdateLatencyScaling/count/1k", NsPerOp: 97_000},
		Result{Name: "UpdateLatencyScaling/count/100k", NsPerOp: 540_000}, // 5.6x
	)
	findings, ok := CheckScaling(rep, DefaultMaxScalingGrowth)
	if ok {
		t.Fatalf("linear growth must fail: %+v", findings)
	}
	if len(findings) != 1 || !findings[0].IsRegression() {
		t.Fatalf("expected one regression, got %+v", findings)
	}
}

// TestCheckScalingMissingEntriesFails: a report without the scaling
// sweep must fail loudly — a silently skipped gate guards nothing.
func TestCheckScalingMissingEntriesFails(t *testing.T) {
	rep := report(Result{Name: "E2FIVM", NsPerOp: 1})
	if _, ok := CheckScaling(rep, DefaultMaxScalingGrowth); ok {
		t.Fatal("report without scaling entries must fail the gate")
	}
}

// TestCheckScalingUnpairedFamilyFails: a family with only one endpoint
// (a filtered run, or a suite edit that drops one size) must fail too —
// the per-family version of the missing-entries rule.
func TestCheckScalingUnpairedFamilyFails(t *testing.T) {
	rep := report(
		Result{Name: "UpdateLatencyScaling/count/1k", NsPerOp: 13_000},
		Result{Name: "UpdateLatencyScaling/count/100k", NsPerOp: 20_000},
		Result{Name: "UpdateLatencyScaling/covar/1k", NsPerOp: 17_000}, // no /100k
	)
	findings, ok := CheckScaling(rep, DefaultMaxScalingGrowth)
	if ok {
		t.Fatalf("unpaired covar family must fail the gate: %+v", findings)
	}
	var covar *Finding
	for i := range findings {
		if findings[i].Name == "UpdateLatencyScaling/covar" {
			covar = &findings[i]
		}
	}
	if covar == nil || !covar.IsRegression() {
		t.Fatalf("expected a regression for the unpaired family, got %+v", findings)
	}
	// A /100k without its /1k partner is just as unpaired.
	rep = report(Result{Name: "UpdateLatencyScaling/count/100k", NsPerOp: 20_000})
	if _, ok := CheckScaling(rep, DefaultMaxScalingGrowth); ok {
		t.Fatal("100k-only family must fail the gate")
	}
}

// TestCompareRefreshedSuiteAgainstOldBaseline is the scenario that
// motivated the finding kinds: a PR extends the suite (e.g. the
// UpdateLatencyScaling sweep) before the baseline is refreshed. The
// gate must pass, every new entry must surface as an addition, and the
// rendered output must summarize the drift instead of failing or
// burying it.
func TestCompareRefreshedSuiteAgainstOldBaseline(t *testing.T) {
	base := report(Result{Name: "E2FIVM", UpdatesPerSec: 100_000, AllocsPerOp: 1000})
	cur := report(
		Result{Name: "E2FIVM", UpdatesPerSec: 101_000, AllocsPerOp: 990},
		Result{Name: "UpdateLatencyScaling/count/1k", UpdatesPerSec: 150_000, AllocsPerOp: 40},
		Result{Name: "UpdateLatencyScaling/count/100k", UpdatesPerSec: 100_000, AllocsPerOp: 40},
	)
	findings, ok := Compare(base, cur, DefaultThresholds())
	if !ok {
		t.Fatalf("new suite entries must not fail against an old baseline: %+v", findings)
	}
	additions := 0
	for _, f := range findings {
		if f.Kind == FindingAddition {
			additions++
		}
	}
	if additions != 2 {
		t.Fatalf("expected 2 additions, got %d in %+v", additions, findings)
	}
	var buf strings.Builder
	WriteFindings(&buf, findings, ok)
	out := buf.String()
	if !strings.Contains(out, "2 added, 0 removed") {
		t.Fatalf("summary line missing from output:\n%s", out)
	}
	if !strings.Contains(out, "within thresholds") {
		t.Fatalf("pass line missing from output:\n%s", out)
	}
	if strings.Contains(out, "REGRESSION") {
		t.Fatalf("additions must not render as regressions:\n%s", out)
	}
}

// TestCheckParallelSpeedupPasses: a report from a >=4-core host whose
// 4-worker E2FIVM run clears the floor passes, with one note for the
// gated family and informational notes for the rest.
func TestCheckParallelSpeedupPasses(t *testing.T) {
	rep := report(
		Result{Name: "E8Workers/workers1", UpdatesPerSec: 100_000},
		Result{Name: "E8Workers/workers4", UpdatesPerSec: 270_000},
		Result{Name: "E8WorkersCategorical/workers1", UpdatesPerSec: 10_000},
		Result{Name: "E8WorkersCategorical/workers4", UpdatesPerSec: 15_000}, // below floor but ungated
	)
	rep.GOMAXPROCS = 4
	findings, ok := CheckParallel(rep, DefaultMinParallelSpeedup)
	if !ok {
		t.Fatalf("2.7x speedup must pass: %+v", findings)
	}
	if len(findings) != 2 {
		t.Fatalf("expected one note per family, got %+v", findings)
	}
	for _, f := range findings {
		if f.Kind != FindingNote {
			t.Fatalf("passing family should be a note: %+v", f)
		}
	}
}

// TestCheckParallelBelowFloorFails: 4-worker throughput under the floor
// is exactly the Amdahl regression the gate exists for.
func TestCheckParallelBelowFloorFails(t *testing.T) {
	rep := report(
		Result{Name: "E8Workers/workers1", UpdatesPerSec: 100_000},
		Result{Name: "E8Workers/workers4", UpdatesPerSec: 150_000}, // 1.5x < 2x
	)
	rep.GOMAXPROCS = 8
	findings, ok := CheckParallel(rep, DefaultMinParallelSpeedup)
	if ok {
		t.Fatalf("1.5x speedup must fail: %+v", findings)
	}
	if len(findings) != 1 || !findings[0].IsRegression() {
		t.Fatalf("expected one regression, got %+v", findings)
	}
}

// TestCheckParallelSmallHostSkips: below 4 CPUs the hardware cannot
// express the parallelism; the gate must pass with a skip note rather
// than fail a 1-CPU dev box.
func TestCheckParallelSmallHostSkips(t *testing.T) {
	rep := report(
		Result{Name: "E8Workers/workers1", UpdatesPerSec: 100_000},
		Result{Name: "E8Workers/workers4", UpdatesPerSec: 90_000}, // negative scaling, typical of 1 CPU
	)
	rep.GOMAXPROCS = 1
	findings, ok := CheckParallel(rep, DefaultMinParallelSpeedup)
	if !ok {
		t.Fatalf("small host must skip, not fail: %+v", findings)
	}
	if len(findings) != 1 || findings[0].Kind != FindingNote {
		t.Fatalf("expected a single skip note, got %+v", findings)
	}
}

// TestCheckParallelMissingEntriesFails: a 4-core report without the
// E8Workers family (or with one endpoint filtered away) must fail
// loudly, mirroring the scalingcheck rule.
func TestCheckParallelMissingEntriesFails(t *testing.T) {
	rep := report(Result{Name: "E2FIVM", UpdatesPerSec: 100_000})
	rep.GOMAXPROCS = 4
	if _, ok := CheckParallel(rep, DefaultMinParallelSpeedup); ok {
		t.Fatal("report without E8Workers entries must fail the gate")
	}
	rep = report(Result{Name: "E8Workers/workers1", UpdatesPerSec: 100_000})
	rep.GOMAXPROCS = 4
	if _, ok := CheckParallel(rep, DefaultMinParallelSpeedup); ok {
		t.Fatal("report with only one endpoint must fail the gate")
	}
}

// TestCheckParallelNsFallback: a family without a rate metric still
// yields a ratio through inverse latency.
func TestCheckParallelNsFallback(t *testing.T) {
	rep := report(
		Result{Name: "E8Workers/workers1", NsPerOp: 1000},
		Result{Name: "E8Workers/workers4", NsPerOp: 400}, // 2.5x
	)
	rep.GOMAXPROCS = 4
	if findings, ok := CheckParallel(rep, DefaultMinParallelSpeedup); !ok {
		t.Fatalf("2.5x inverse-latency speedup must pass: %+v", findings)
	}
}

// TestCheckCluster covers the sharded-scaling gate: a clearing 4-shard
// run passes with a note, a below-floor run fails, a small host skips,
// and a report without the ClusterIngest family fails loudly.
func TestCheckCluster(t *testing.T) {
	rep := report(
		Result{Name: "ClusterIngest/shards1", UpdatesPerSec: 100_000},
		Result{Name: "ClusterIngest/shards4", UpdatesPerSec: 200_000},
	)
	rep.GOMAXPROCS = 4
	findings, ok := CheckCluster(rep, DefaultMinClusterSpeedup)
	if !ok || len(findings) != 1 || findings[0].Kind != FindingNote {
		t.Fatalf("2.0x speedup must pass with one note: ok=%v %+v", ok, findings)
	}

	rep = report(
		Result{Name: "ClusterIngest/shards1", UpdatesPerSec: 100_000},
		Result{Name: "ClusterIngest/shards4", UpdatesPerSec: 120_000}, // 1.2x < 1.5x
	)
	rep.GOMAXPROCS = 8
	findings, ok = CheckCluster(rep, DefaultMinClusterSpeedup)
	if ok || len(findings) != 1 || !findings[0].IsRegression() {
		t.Fatalf("1.2x speedup must fail with one regression: ok=%v %+v", ok, findings)
	}

	rep.GOMAXPROCS = 1
	findings, ok = CheckCluster(rep, DefaultMinClusterSpeedup)
	if !ok || len(findings) != 1 || findings[0].Kind != FindingNote {
		t.Fatalf("1-CPU host must skip with a note: ok=%v %+v", ok, findings)
	}

	rep = report(Result{Name: "E2FIVM", UpdatesPerSec: 100_000})
	rep.GOMAXPROCS = 4
	if _, ok := CheckCluster(rep, DefaultMinClusterSpeedup); ok {
		t.Fatal("report without ClusterIngest entries must fail the gate")
	}
	rep = report(Result{Name: "ClusterIngest/shards1", UpdatesPerSec: 100_000})
	rep.GOMAXPROCS = 4
	if _, ok := CheckCluster(rep, DefaultMinClusterSpeedup); ok {
		t.Fatal("report with only one shard count must fail the gate")
	}
}
