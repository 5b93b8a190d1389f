// Package perf makes the repository's performance trajectory machine-
// readable: it hosts the canonical benchmark suite (shared with the
// root go-test benchmarks), a runner that executes it via
// testing.Benchmark, JSON emission of the results, and a comparator
// that gates regressions in CI (see docs/PERF.md).
package perf

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/fivm"
	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/ring"
	"repro/internal/serve"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

// Bench is one leaf benchmark of the canonical suite: a plain
// testing.B function, runnable both as a go-test benchmark (the root
// bench_test.go wrappers) and through testing.Benchmark by the
// fivm-bench runner.
type Bench struct {
	Name string
	Fn   func(b *testing.B)
}

// Suite returns the canonical benchmark suite, one entry per measured
// configuration. Names are stable identifiers ("family/point") — the
// CI comparison matches results across runs by them.
func Suite() []Bench {
	s := []Bench{
		{Name: "E1Figure1Delta", Fn: benchE1Figure1Delta},
		{Name: "E2FIVM", Fn: benchE2FIVM},
		{Name: "E2FlatIVM", Fn: benchE2FlatIVM},
		{Name: "E2Reeval", Fn: benchE2Reeval},
		{Name: "E2CompoundCategorical", Fn: benchE2CompoundCategorical},
	}
	for _, batch := range []int{1, 100, 1000} {
		s = append(s, Bench{Name: "E7BatchSize/" + sizeName(batch), Fn: benchE7BatchSize(batch)})
	}
	for _, m := range []int{2, 10, 20} {
		s = append(s, Bench{Name: "E7AggCount/" + sizeName(m), Fn: benchE7AggCount(m)})
	}
	for _, kind := range []string{"count", "covar"} {
		for _, rows := range []int{1_000, 10_000, 100_000} {
			s = append(s, Bench{
				Name: fmt.Sprintf("UpdateLatencyScaling/%s/%s", kind, sizeName(rows)),
				Fn:   benchUpdateLatencyScaling(kind, rows),
			})
		}
	}
	for _, workers := range []int{1, 4} {
		s = append(s, Bench{Name: fmt.Sprintf("E8Workers/workers%d", workers), Fn: benchE8Workers(workers)})
	}
	for _, workers := range []int{1, 4} {
		s = append(s, Bench{Name: fmt.Sprintf("E8WorkersCategorical/workers%d", workers), Fn: benchE8WorkersCategorical(workers)})
	}
	s = append(s,
		Bench{Name: "AblationSharing/compound", Fn: benchAblationSharingCompound},
		Bench{Name: "AblationSharing/unshared", Fn: benchAblationSharingUnshared},
		Bench{Name: "AblationDeletes/insertOnly", Fn: benchAblationDeletes(0)},
		Bench{Name: "AblationDeletes/half", Fn: benchAblationDeletes(0.5)},
		Bench{Name: "AblationFactorized/gradient", Fn: benchAblationFactorizedGradient},
		Bench{Name: "AblationFactorized/joinResult", Fn: benchAblationFactorizedJoin},
		Bench{Name: "AblationRanged/fullDegree", Fn: benchAblationRanged(false)},
		Bench{Name: "AblationRanged/ranged", Fn: benchAblationRanged(true)},
		Bench{Name: "ServeIngest", Fn: benchServeIngest},
		Bench{Name: "ServeIngestWorkers/workers1", Fn: benchServeIngestWorkers(1)},
		Bench{Name: "ServeIngestWorkers/workers4", Fn: benchServeIngestWorkers(4)},
		Bench{Name: "ServeSnapshotReads/idle-writer", Fn: benchServeSnapshotReads(false)},
		Bench{Name: "ServeSnapshotReads/active-writer", Fn: benchServeSnapshotReads(true)},
	)
	for _, shards := range []int{1, 4} {
		s = append(s, Bench{Name: fmt.Sprintf("ClusterIngest/shards%d", shards), Fn: benchClusterIngest(shards)})
	}
	return s
}

// Named returns the suite entry with the given name; it panics on an
// unknown name (a programming error in a wrapper).
func Named(name string) func(b *testing.B) {
	for _, e := range Suite() {
		if e.Name == name {
			return e.Fn
		}
	}
	panic("perf: unknown suite benchmark " + name)
}

// RunGroup runs every suite entry under prefix (exclusive of the "/")
// as sub-benchmarks of b — the bridge that keeps `go test -bench`
// sweeps (BenchmarkE7BatchSize etc.) and the fivm-bench runner on one
// set of benchmark bodies.
func RunGroup(b *testing.B, prefix string) {
	found := false
	for _, e := range Suite() {
		if sub, ok := strings.CutPrefix(e.Name, prefix+"/"); ok {
			found = true
			b.Run(sub, e.Fn)
		}
	}
	if !found {
		b.Fatalf("perf: no suite benchmarks under %q", prefix)
	}
}

// --- shared fixtures --------------------------------------------------------

const (
	e2Rows      = 20_000
	e2Stream    = 5_000
	e2BatchSize = 1_000
)

// retailerFixture builds the shared Retailer fixture at benchmark scale.
func retailerFixture(tb testing.TB, rows int) (*dataset.Database, []fivm.RelationSpec, []baseline.RelSpec, []string) {
	tb.Helper()
	cfg := dataset.DefaultRetailerConfig()
	cfg.InventoryRows = rows
	db := dataset.Retailer(cfg)
	var fs []fivm.RelationSpec
	var bs []baseline.RelSpec
	for _, r := range db.Relations {
		fs = append(fs, fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs})
		bs = append(bs, baseline.RelSpec{Name: r.Name, Schema: r.Schema()})
	}
	return db, fs, bs, []string{"inventoryunits", "prize", "avghhi", "maxtemp", "medianage"}
}

func streamFixture(tb testing.TB, db *dataset.Database, n int, deleteRatio float64) []view.Update {
	tb.Helper()
	st, err := dataset.NewStream(db, dataset.StreamConfig{
		Relation: "Inventory", Total: n, DeleteRatio: deleteRatio, Seed: 17,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return st.Updates
}

func reportRate(b *testing.B, updatesPerIter int) {
	b.ReportMetric(float64(updatesPerIter)*float64(b.N)/b.Elapsed().Seconds(), "updates/sec")
}

var categoricalFeatures = []fivm.FeatureSpec{
	{Attr: "inventoryunits"},
	{Attr: "prize"},
	{Attr: "avghhi"},
	{Attr: "subcategory", Categorical: true},
	{Attr: "category", Categorical: true},
	{Attr: "categoryCluster", Categorical: true},
	{Attr: "zip", Categorical: true},
}

var rangedAttrs = []string{"inventoryunits", "prize", "avghhi", "maxtemp", "medianage",
	"population", "tot_area_sq_ft", "sell_area_sq_ft", "mintemp", "meanwind",
	"houseunits", "families", "households", "males", "females",
	"white", "black", "asian", "hispanic", "occupiedhouseunits"}

func sizeName(n int) string {
	if n >= 1000 {
		return fmt.Sprintf("%dk", n/1000)
	}
	return fmt.Sprintf("%d", n)
}

// applyBatched drives ups through eng.Apply in fixed-size batches.
func applyBatched(b *testing.B, apply func([]view.Update) error, ups []view.Update, batch int) {
	b.Helper()
	for j := 0; j < len(ups); j += batch {
		k := j + batch
		if k > len(ups) {
			k = len(ups)
		}
		if err := apply(ups[j:k]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E1: Figure 1 toy maintenance -------------------------------------------

// benchE1Figure1Delta measures one δR maintenance step on the Figure 1
// toy database under the degree-3 COVAR ring.
func benchE1Figure1Delta(b *testing.B) {
	rels := []vo.Rel{
		{Name: "R", Schema: value.NewSchema("A", "B")},
		{Name: "S", Schema: value.NewSchema("A", "C", "D")},
	}
	r := ring.NewCovarRing(3)
	tr, err := view.New(view.Spec[*ring.Covar]{
		Ring: r, Relations: rels,
		Lifts: map[string]ring.Lift[*ring.Covar]{"B": r.Lift(0), "C": r.Lift(1), "D": r.Lift(2)},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.Init(map[string][]value.Tuple{
		"R": {value.T("a1", 1), value.T("a2", 2)},
		"S": {value.T("a1", 1, 1), value.T("a1", 2, 3), value.T("a2", 2, 2)},
	}); err != nil {
		b.Fatal(err)
	}
	tup := value.T("a1", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert("R", tup); err != nil {
			b.Fatal(err)
		}
		if err := tr.Delete("R", tup); err != nil {
			b.Fatal(err)
		}
	}
	reportRate(b, 2)
}

// --- E2: throughput, F-IVM vs baselines -------------------------------------

// benchE2FIVM maintains the 21-aggregate COVAR payload over the 5-way
// Retailer join with F-IVM's factorized ring maintenance.
func benchE2FIVM(b *testing.B) {
	db, fs, _, aggs := retailerFixture(b, e2Rows)
	ups := streamFixture(b, db, e2Stream, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := fivm.NewCovarEngine(fs, aggs, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Init(db.TupleMap()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		applyBatched(b, eng.Apply, ups, e2BatchSize)
	}
	reportRate(b, len(ups))
}

// benchE2FlatIVM maintains the same aggregates with the DBToaster-style
// flat first-order baseline.
func benchE2FlatIVM(b *testing.B) {
	db, _, bs, aggs := retailerFixture(b, e2Rows)
	ups := streamFixture(b, db, e2Stream, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		flat, err := baseline.NewFlatIVM(bs, aggs)
		if err != nil {
			b.Fatal(err)
		}
		if err := flat.Init(db.TupleMap()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		applyBatched(b, flat.Apply, ups, e2BatchSize)
	}
	reportRate(b, len(ups))
}

// benchE2Reeval recomputes from scratch per batch (shortened stream;
// the rate metric is what matters).
func benchE2Reeval(b *testing.B) {
	db, _, bs, aggs := retailerFixture(b, e2Rows)
	ups := streamFixture(b, db, 2*e2BatchSize, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		re, err := baseline.NewReeval(bs, aggs)
		if err != nil {
			b.Fatal(err)
		}
		if err := re.Init(db.TupleMap()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		applyBatched(b, re.Apply, ups, e2BatchSize)
	}
	reportRate(b, len(ups))
}

// benchE2CompoundCategorical maintains the mixed categorical payload
// (thousands of one-hot aggregates) — the configuration behind the
// paper's 10K-updates/sec claim.
func benchE2CompoundCategorical(b *testing.B) {
	db, fs, _, _ := retailerFixture(b, e2Rows)
	ups := streamFixture(b, db, e2Stream, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		an, err := fivm.NewAnalysis(fivm.AnalysisConfig{Relations: fs, Features: categoricalFeatures})
		if err != nil {
			b.Fatal(err)
		}
		if err := an.Init(db.TupleMap()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		applyBatched(b, an.Apply, ups, e2BatchSize)
	}
	reportRate(b, len(ups))
}

// --- E7: sweeps -------------------------------------------------------------

// benchE7BatchSize sweeps the update bulk size.
func benchE7BatchSize(batch int) func(b *testing.B) {
	return func(b *testing.B) {
		db, fs, _, aggs := retailerFixture(b, 5_000)
		ups := streamFixture(b, db, 2_000, 0.2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, err := fivm.NewCovarEngine(fs, aggs, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Init(db.TupleMap()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			applyBatched(b, eng.Apply, ups, batch)
		}
		reportRate(b, len(ups))
	}
}

// benchE7AggCount sweeps the COVAR degree m.
func benchE7AggCount(m int) func(b *testing.B) {
	return func(b *testing.B) {
		db, fs, _, _ := retailerFixture(b, 5_000)
		ups := streamFixture(b, db, 2_000, 0.2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, err := fivm.NewCovarEngine(fs, rangedAttrs[:m], nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Init(db.TupleMap()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			applyBatched(b, eng.Apply, ups, 500)
		}
		reportRate(b, len(ups))
	}
}

// --- Update-latency scaling ---------------------------------------------------

// benchUpdateLatencyScaling pins the paper's central complexity claim:
// single-tuple maintenance cost proportional to the delta, not the
// database. It bulk-loads the Retailer join at the given fact-table
// size ONCE (outside the timer), then measures steady-state
// insert+delete pairs of one Inventory tuple. With the persistent
// join-key view indexes the ns/op must stay ~flat as rows grows
// 1k -> 100k; the pre-index build-and-scan join degraded linearly
// because every path join scanned the full sibling view. CI graphs
// these entries as the latency-vs-size curve (docs/PERF.md).
func benchUpdateLatencyScaling(kind string, rows int) func(b *testing.B) {
	return func(b *testing.B) {
		db, fs, _, aggs := retailerFixture(b, rows)
		// The benchmark drives the kind-independent surface every engine
		// shares — bulk load once, then prebuilt single-tuple deltas
		// through the type-erased delta path, exactly as the serving
		// pipeline does.
		var eng fivm.AnyEngine
		switch kind {
		case "count":
			cat := fivm.NewCatalog()
			for _, r := range db.Relations {
				if err := cat.AddRelation(r.Name, r.Attrs...); err != nil {
					b.Fatal(err)
				}
			}
			q, err := fivm.Parse(cat, "SELECT SUM(1) FROM Inventory NATURAL JOIN Location NATURAL JOIN Census NATURAL JOIN Item NATURAL JOIN Weather")
			if err != nil {
				b.Fatal(err)
			}
			ce, err := fivm.NewCountEngine(q, nil)
			if err != nil {
				b.Fatal(err)
			}
			eng = ce
		case "covar":
			ce, err := fivm.NewCovarEngine(fs, aggs, nil)
			if err != nil {
				b.Fatal(err)
			}
			eng = ce
		default:
			b.Fatalf("unknown scaling engine kind %q", kind)
		}
		if err := eng.Init(db.TupleMap()); err != nil {
			b.Fatal(err)
		}
		tup := db.TupleMap()["Inventory"][0]
		dIns, err := eng.BuildDelta("Inventory", []view.Update{{Rel: "Inventory", Tuple: tup, Mult: 1}})
		if err != nil {
			b.Fatal(err)
		}
		dDel, err := eng.BuildDelta("Inventory", []view.Update{{Rel: "Inventory", Tuple: tup, Mult: -1}})
		if err != nil {
			b.Fatal(err)
		}
		apply := func() {
			if err := eng.ApplyBuilt("Inventory", dIns); err != nil {
				b.Fatal(err)
			}
			if err := eng.ApplyBuilt("Inventory", dDel); err != nil {
				b.Fatal(err)
			}
		}
		apply() // warm the tree's scratch before measuring
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			apply()
		}
		reportRate(b, 2)
	}
}

// --- E8: parallel delta propagation -----------------------------------------

// benchE8Workers sweeps the delta-propagation worker count on the
// Retailer batch stream (COVAR degree 5, batches of 1000): the same
// workload as E2, with update batches hash-partitioned by join key and
// propagated concurrently. workers=1 is the sequential baseline; on a
// multi-core host the 4-worker rate should exceed it, while on a
// single-core host the sweep measures the partitioning overhead.
func benchE8Workers(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		db, fs, _, aggs := retailerFixture(b, e2Rows)
		ups := streamFixture(b, db, e2Stream, 0.2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, err := fivm.NewCovarEngine(fs, aggs, nil)
			if err != nil {
				b.Fatal(err)
			}
			eng.SetParallelism(workers)
			if err := eng.Init(db.TupleMap()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			applyBatched(b, eng.Apply, ups, e2BatchSize)
		}
		reportRate(b, len(ups))
	}
}

// benchE8WorkersCategorical is the same sweep over the heavier mixed
// categorical payload (the relational degree-7 ring), where per-tuple
// ring work is large enough for partitioning to pay off at smaller
// batch sizes.
func benchE8WorkersCategorical(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		db, fs, _, _ := retailerFixture(b, e2Rows)
		ups := streamFixture(b, db, e2Stream, 0.2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			an, err := fivm.NewAnalysis(fivm.AnalysisConfig{Relations: fs, Features: categoricalFeatures})
			if err != nil {
				b.Fatal(err)
			}
			an.SetParallelism(workers)
			if err := an.Init(db.TupleMap()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			applyBatched(b, an.Apply, ups, e2BatchSize)
		}
		reportRate(b, len(ups))
	}
}

// --- A1–A4: ablations -------------------------------------------------------

// benchAblationSharingCompound is the compound-ring half of A1 (ring
// sharing): all 21 aggregates in one COVAR payload.
func benchAblationSharingCompound(b *testing.B) {
	db, fs, _, aggs := retailerFixture(b, 5_000)
	ups := streamFixture(b, db, 1_000, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := fivm.NewCovarEngine(fs, aggs, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Init(db.TupleMap()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := eng.Apply(ups); err != nil {
			b.Fatal(err)
		}
	}
	reportRate(b, len(ups))
}

// benchAblationSharingUnshared is A1's unshared half: one Z-ring count
// tree plus one float tree per SUM(X) and SUM(X*Y) — 1 + 5 + 15 = 21
// independent view trees.
func benchAblationSharingUnshared(b *testing.B) {
	db, _, _, aggs := retailerFixture(b, 5_000)
	ups := streamFixture(b, db, 1_000, 0.2)
	build := func() []*view.Tree[float64] {
		var trees []*view.Tree[float64]
		var rels []vo.Rel
		for _, r := range db.Relations {
			rels = append(rels, vo.Rel{Name: r.Name, Schema: value.NewSchema(r.Attrs...)})
		}
		add := func(lifts map[string]ring.Lift[float64]) {
			t, err := view.New(view.Spec[float64]{Ring: ring.Floats{}, Relations: rels, Lifts: lifts})
			if err != nil {
				b.Fatal(err)
			}
			if err := t.Init(db.TupleMap()); err != nil {
				b.Fatal(err)
			}
			trees = append(trees, t)
		}
		add(nil) // count
		for i, a := range aggs {
			add(map[string]ring.Lift[float64]{a: ring.IdentityLift})
			add(map[string]ring.Lift[float64]{a: ring.SquareLift})
			for _, c := range aggs[i+1:] {
				add(map[string]ring.Lift[float64]{a: ring.IdentityLift, c: ring.IdentityLift})
			}
		}
		return trees
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		trees := build()
		b.StartTimer()
		for _, t := range trees {
			if err := t.ApplyUpdates(ups); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportRate(b, len(ups))
}

// benchAblationDeletes sweeps the delete ratio: the rate must stay in
// the same band (deletes are just negative payloads).
func benchAblationDeletes(ratio float64) func(b *testing.B) {
	return func(b *testing.B) {
		db, fs, _, aggs := retailerFixture(b, 5_000)
		ups := streamFixture(b, db, 2_000, ratio)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, err := fivm.NewCovarEngine(fs, aggs, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Init(db.TupleMap()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			applyBatched(b, eng.Apply, ups, 500)
		}
		reportRate(b, len(ups))
	}
}

// benchAblationFactorizedGradient (A2, gradient half) maintains the
// COVAR gradient through the view tree.
func benchAblationFactorizedGradient(b *testing.B) {
	db, fs, _, aggs := retailerFixture(b, 5_000)
	ups := streamFixture(b, db, 1_000, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := fivm.NewCovarEngine(fs, aggs, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Init(db.TupleMap()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := eng.Apply(ups); err != nil {
			b.Fatal(err)
		}
	}
	reportRate(b, len(ups))
}

// benchAblationFactorizedJoin (A2, join half) maintains the join result
// itself through the same view tree — only the ring differs.
func benchAblationFactorizedJoin(b *testing.B) {
	db, fs, _, _ := retailerFixture(b, 5_000)
	ups := streamFixture(b, db, 1_000, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		je, err := fivm.NewJoinEngine(fs, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := je.Init(db.TupleMap()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := je.Apply(ups); err != nil {
			b.Fatal(err)
		}
	}
	reportRate(b, len(ups))
}

// benchAblationRanged (A4) compares full-degree view payloads with
// ranged payloads (Figure 2d's RingCofactor<double, idx, cnt>): views
// carry only their own subtree's aggregates.
func benchAblationRanged(ranged bool) func(b *testing.B) {
	return func(b *testing.B) {
		db, fs, _, _ := retailerFixture(b, 5_000)
		ups := streamFixture(b, db, 1_000, 0.2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var apply func([]view.Update) error
			var initFn func(map[string][]value.Tuple) error
			if ranged {
				eng, err := fivm.NewRangedCovarEngine(fs, rangedAttrs, nil)
				if err != nil {
					b.Fatal(err)
				}
				apply, initFn = eng.Apply, eng.Init
			} else {
				eng, err := fivm.NewCovarEngine(fs, rangedAttrs, nil)
				if err != nil {
					b.Fatal(err)
				}
				apply, initFn = eng.Apply, eng.Init
			}
			if err := initFn(db.TupleMap()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := apply(ups); err != nil {
				b.Fatal(err)
			}
		}
		reportRate(b, len(ups))
	}
}

// --- Serve: the concurrent serving pipeline ---------------------------------

// serveFixture builds a Retailer-backed serving engine at benchmark
// scale, bulk-loaded and ready for concurrent reads and ingestion.
func serveFixture(tb testing.TB, rows, workers int) (*serve.Server, []view.Update) {
	tb.Helper()
	cfg := dataset.DefaultRetailerConfig()
	cfg.InventoryRows = rows
	db := dataset.Retailer(cfg)
	var rels []fivm.RelationSpec
	for _, r := range db.Relations {
		rels = append(rels, fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs})
	}
	an, err := fivm.NewAnalysis(fivm.AnalysisConfig{
		Relations: rels,
		Label:     "inventoryunits",
		Features: []fivm.FeatureSpec{
			{Attr: "inventoryunits"},
			{Attr: "prize"},
			{Attr: "avghhi"},
			{Attr: "maxtemp"},
			{Attr: "subcategory", Categorical: true},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if workers > 1 {
		an.SetParallelism(workers)
	}
	if err := an.Init(db.TupleMap()); err != nil {
		tb.Fatal(err)
	}
	srv, err := serve.New(an, serve.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := dataset.NewStream(db, dataset.StreamConfig{
		Relation: "Inventory", Total: 20_000, DeleteRatio: 0.3, Seed: 23,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return srv, st.Updates
}

func reportLatencies(b *testing.B, lats []time.Duration) {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) == 0 {
		return
	}
	b.ReportMetric(float64(lats[len(lats)/2].Nanoseconds()), "p50-ns/read")
	b.ReportMetric(float64(lats[len(lats)*99/100].Nanoseconds()), "p99-ns/read")
}

// benchServeIngest measures write-path throughput through the full
// pipeline (shard -> coalesce -> delta -> apply -> snapshot publish),
// one update per Ingest call, fired without waiting for each other. A
// box whose writer is slower than this loop fills the ingest queue and
// gets shed; the loop then does what a client does on a 429 — waits for
// its oldest outstanding request to be applied and retries.
func benchServeIngest(b *testing.B) {
	srv, ups := serveFixture(b, 5_000, 1)
	defer srv.Close()
	// done channels of accepted calls not yet seen applied, oldest first
	var outstanding []<-chan struct{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := ups[i%len(ups)]
		if i%(2*len(ups)) >= len(ups) {
			u.Mult = -u.Mult // undo phase keeps state bounded
		}
		for len(outstanding) > 0 {
			select {
			case <-outstanding[0]:
				outstanding = outstanding[1:]
				continue
			default:
			}
			break
		}
		done, err := srv.Ingest([]view.Update{u})
		var shed *serve.OverloadError
		for errors.As(err, &shed) && len(outstanding) > 0 {
			<-outstanding[0]
			outstanding = outstanding[1:]
			done, err = srv.Ingest([]view.Update{u})
		}
		if err != nil {
			b.Fatal(err)
		}
		outstanding = append(outstanding, done)
	}
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	st := srv.Stats()
	b.ReportMetric(float64(st.Applied)/b.Elapsed().Seconds(), "updates/sec")
	b.ReportMetric(float64(st.Batches), "batches")
}

// benchServeIngestWorkers measures batched write-path throughput with
// parallel delta propagation: shards feed raw updates straight into the
// delta build, and the writer's ApplyBuilt hash-partitions each delta
// across the worker pool. Batches of 1000 keep the coalesced deltas
// above the view layer's parallel threshold.
func benchServeIngestWorkers(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		srv, ups := serveFixture(b, 5_000, workers)
		const batch = 1000
		b.ResetTimer()
		sent := 0
		for i := 0; i < b.N; i++ {
			lo := (i * batch) % len(ups)
			hi := lo + batch
			if hi > len(ups) {
				hi = len(ups)
			}
			if _, err := srv.Ingest(ups[lo:hi]); err != nil {
				b.Fatal(err)
			}
			sent += hi - lo
		}
		if err := srv.Close(); err != nil { // drain everything accepted
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "updates/sec")
	}
}

// benchServeSnapshotReads measures model-read latency against a live
// Server in two regimes: with the write path idle, and with a
// saturating background writer ingesting the update stream. Lock-free
// snapshots mean the reader p50 must not degrade when the writer runs —
// compare the p50-ns/read metric across the two entries.
func benchServeSnapshotReads(ingesting bool) func(b *testing.B) {
	return func(b *testing.B) {
		x := map[string]value.Value{
			"prize":       value.Float(10),
			"avghhi":      value.Float(60_000),
			"maxtemp":     value.Float(20),
			"subcategory": value.Int(1),
		}
		srv, ups := serveFixture(b, 5_000, 1)
		defer srv.Close()
		stop := make(chan struct{})
		writerDone := make(chan struct{})
		ingestedBatches := 0
		if ingesting {
			go func() {
				defer close(writerDone)
				// Cycle the stream followed by its negation so engine
				// state stays bounded however long the benchmark runs.
				neg := make([]view.Update, len(ups))
				for i, u := range ups {
					neg[i] = view.Update{Rel: u.Rel, Tuple: u.Tuple, Mult: -u.Mult}
				}
				for phase := 0; ; phase++ {
					stream := ups
					if phase%2 == 1 {
						stream = neg
					}
					for i := 0; i < len(stream); i += 200 {
						select {
						case <-stop:
							return
						default:
						}
						end := i + 200
						if end > len(stream) {
							end = len(stream)
						}
						if _, err := srv.Ingest(stream[i:end]); err != nil {
							return
						}
						ingestedBatches++
					}
				}
			}()
		}
		lats := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			snap := srv.Snapshot()
			if _, err := snap.Predict(x); err != nil {
				b.Fatal(err)
			}
			lats = append(lats, time.Since(t0))
		}
		b.StopTimer()
		close(stop)
		if ingesting {
			<-writerDone
			if err := srv.Close(); err != nil { // drain, then final publish
				b.Fatal(err)
			}
			v := srv.Snapshot().Version
			if ingestedBatches > 0 && v < 2 {
				b.Fatalf("writer made no progress (snapshot version %d after %d batches)", v, ingestedBatches)
			}
			b.ReportMetric(float64(v), "snapshots")
		}
		reportLatencies(b, lats)
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/sec")
	}
}
