package fivm_test

import (
	"runtime"
	"testing"

	"repro/fivm"
	"repro/internal/daemon"
	"repro/internal/value"
	"repro/internal/view"
)

// The alloc-regression tests pin the steady-state allocation cost of
// the paper's headline maintenance path: one single-tuple delta applied
// through ApplyDelta (delta prebuilt, as the serving pipeline does),
// and one 1000-tuple batch through Apply on the Retailer join. The
// single-tuple ceilings are the measured values (see docs/PERF.md) plus
// ~25% headroom for Go-version noise, the batch ceilings plus ~10% —
// one extra allocation per tuple per path node adds 13–15% there. They
// are regression tripwires, not targets. Allocation counts are
// deterministic, so unlike a throughput gate they need no matching
// hardware. If an intentional change raises them, update the constants
// alongside an explanatory commit.
const (
	// maxAllocsCovarSingle bounds allocs for one insert + one delete of
	// a single tuple on the scalar-covar engine (degree 3, two-relation
	// join). Measured 16 for the pair: what is left are the ring values
	// themselves (a lift, its product) and the first-seen group's tuple
	// and key; every map, slab and table is a recycled step buffer.
	// History: 230+ → 82 → 76 → 60 (in-place commits) → 16 (fused step)
	// → 16 (ranged payloads: fewer bytes, not fewer values). Budget:
	// measured + 10%.
	maxAllocsCovarSingle = 18
	// maxAllocsCountSingle bounds the same pair on the count engine.
	// Measured 4 (value payloads: only the group tuple and key remain).
	// History: 48 (indexed path) → 4 (fused step, recycled buffers).
	maxAllocsCountSingle = 5
	// maxAllocsAnalysisSingle bounds the same pair on the analysis
	// engine (relational-COVAR ring, one categorical and two continuous
	// features; a payload is a header plus one coefficient slice).
	// Measured 16, the scalar covar engine's number. History: 250 → 130
	// (map-of-maps payloads) → 60 (flat payloads) → 16 (fused step).
	maxAllocsAnalysisSingle = 20

	// maxAllocsCovarBatch bounds one batch of 1000 fresh Inventory
	// inserts plus the batch deleting them again, through Apply, on the
	// Retailer covar engine (5 000 rows, five attributes). Measured
	// 20 850 (10.4 per update) now that Inventory keeps no tuple map;
	// 21 848 when it did, 22 848 before payloads were ranged, their s and
	// Q one array. Budget: measured + 10%.
	maxAllocsCovarBatch = 22_940
	// maxBytesCovarBatch bounds the bytes that batch pair allocates per
	// update: what GC pressure on the serving writer scales with, which
	// allocation counts miss — ranged payloads halved it (1 031 → 520)
	// while the count moved 4%. Measured 496 on go1.24 (520 while
	// Inventory kept a tuple map); go1.22 is unverified (its maps size
	// differently). Budget: measured + 10%.
	maxBytesCovarBatch = 546
	// maxAllocsAnalysisBatch and maxBytesAnalysisBatch bound the same
	// pair on the Retailer analysis engine (three continuous and four
	// categorical features). Measured 21 382 allocs and 1 374
	// bytes/update on go1.24 now that RelCovar sums fold in place: a new
	// key merges into the accumulator's spare capacity and a fused
	// product builds no value. Before that: 25 583 allocs and 2 861
	// bytes/update (26 575–26 582 allocs while Inventory kept a tuple
	// map). Budget: measured + 10%.
	maxAllocsAnalysisBatch = 23_520
	maxBytesAnalysisBatch  = 1_511

	// maxAllocsPublishAnalysis and maxBytesPublishAnalysis bound one
	// PublishModel on the Retailer preset's analysis engine (5 000 rows,
	// label inventoryunits): the payload clone, Σ and the warm-started
	// ridge refit, which the serving writer runs before a batch's
	// waiters are released. Measured 221 allocs and 517 384 bytes with
	// the dense Σ (its matrix and Fit's system matrix, n×n each), 240
	// allocs and 165 400 bytes with the sparse one. Budget: measured + 10%.
	maxAllocsPublishAnalysis = 264
	maxBytesPublishAnalysis  = 181_940
)

func allocFixtureData() map[string][]value.Tuple {
	return map[string][]value.Tuple{
		"R": {value.T("a1", 1), value.T("a2", 2)},
		"S": {value.T("a1", 1, 1), value.T("a1", 2, 3), value.T("a2", 2, 2)},
	}
}

// measureSingleTupleApply builds the ±1 deltas for one R tuple and
// returns the allocations of applying the insert and the delete (the
// pair leaves the engine state unchanged, so every iteration sees the
// same view sizes).
func measureSingleTupleApply(t *testing.T, eng fivm.AnyEngine) float64 {
	t.Helper()
	if err := eng.Init(allocFixtureData()); err != nil {
		t.Fatal(err)
	}
	tup := value.T("a1", 1)
	dIns, err := eng.BuildDelta("R", []view.Update{{Rel: "R", Tuple: tup, Mult: 1}})
	if err != nil {
		t.Fatal(err)
	}
	dDel, err := eng.BuildDelta("R", []view.Update{{Rel: "R", Tuple: tup, Mult: -1}})
	if err != nil {
		t.Fatal(err)
	}
	apply := func() {
		if err := eng.ApplyBuilt("R", dIns); err != nil {
			t.Fatal(err)
		}
		if err := eng.ApplyBuilt("R", dDel); err != nil {
			t.Fatal(err)
		}
	}
	apply() // warm the tree's scratch buffers before measuring
	return testing.AllocsPerRun(300, apply)
}

func TestApplyDeltaAllocsCovar(t *testing.T) {
	eng := open[fivm.AnyEngine](t, fivm.Config{Relations: openRels(), Attrs: []string{"B", "C", "D"}})
	got := measureSingleTupleApply(t, eng)
	t.Logf("covar single-tuple insert+delete: %.0f allocs", got)
	if got > maxAllocsCovarSingle {
		t.Errorf("covar single-tuple ApplyDelta pair allocates %.0f, budget %d — the hot path regressed (see docs/PERF.md)", got, maxAllocsCovarSingle)
	}
}

func TestApplyDeltaAllocsCount(t *testing.T) {
	eng := open[fivm.AnyEngine](t, fivm.Config{Relations: openRels(), Query: "SELECT SUM(1) FROM R NATURAL JOIN S"})
	got := measureSingleTupleApply(t, eng)
	t.Logf("count single-tuple insert+delete: %.0f allocs", got)
	if got > maxAllocsCountSingle {
		t.Errorf("count single-tuple ApplyDelta pair allocates %.0f, budget %d — the hot path regressed (see docs/PERF.md)", got, maxAllocsCountSingle)
	}
}

func TestApplyDeltaAllocsAnalysis(t *testing.T) {
	eng := open[fivm.AnyEngine](t, fivm.Config{
		Relations: openRels(),
		Features:  []fivm.FeatureSpec{{Attr: "B"}, {Attr: "C", Categorical: true}, {Attr: "D"}},
	})
	got := measureSingleTupleApply(t, eng)
	t.Logf("analysis single-tuple insert+delete: %.0f allocs", got)
	if got > maxAllocsAnalysisSingle {
		t.Errorf("analysis single-tuple ApplyDelta pair allocates %.0f, budget %d — the hot path regressed (see docs/PERF.md)", got, maxAllocsAnalysisSingle)
	}
}

// measureBatchApply bulk-loads eng with a 5 000-row Retailer database
// and returns the allocations, and the bytes allocated per update, of
// applying 1000 fresh Inventory inserts and then their deletion — a
// pair that leaves the engine's state as it found it, so every run sees
// the same views. Like testing.AllocsPerRun it measures at GOMAXPROCS 1
// after one warm-up run.
func measureBatchApply(t *testing.T, eng fivm.AnyEngine) (allocs, bytesPerUpdate float64) {
	t.Helper()
	db, _ := retailer(5_000, 0)
	if err := eng.Init(db.TupleMap()); err != nil {
		t.Fatal(err)
	}
	ins := inventoryStream(t, db, 1_000, 0)
	del := make([]view.Update, len(ins))
	for i, u := range ins {
		del[i] = view.Update{Rel: u.Rel, Tuple: u.Tuple, Mult: -u.Mult}
	}
	apply := func() {
		if err := eng.Apply(ins); err != nil {
			t.Fatal(err)
		}
		if err := eng.Apply(del); err != nil {
			t.Fatal(err)
		}
	}
	allocs, bytes := allocsPerRun(5, apply)
	return allocs, bytes / float64(len(ins)+len(del))
}

// allocsPerRun returns the allocations and bytes one call of f
// allocates, averaged over runs calls after one warm-up call (which
// interns categories and sizes recycled buffers). Like
// testing.AllocsPerRun it measures at GOMAXPROCS 1.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	f()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

func TestApplyBatchAllocsCovar(t *testing.T) {
	_, rels := retailer(5_000, 0)
	eng, err := fivm.Open(fivm.Config{Relations: rels, Attrs: retailerAttrs})
	if err != nil {
		t.Fatal(err)
	}
	got, bytes := measureBatchApply(t, eng)
	t.Logf("covar 1000-tuple insert+delete batches: %.0f allocs, %.0f bytes/update", got, bytes)
	if got > maxAllocsCovarBatch {
		t.Errorf("covar 1000-tuple batch pair allocates %.0f, budget %d — the batch path regressed (see docs/PERF.md)", got, maxAllocsCovarBatch)
	}
	if bytes > maxBytesCovarBatch {
		t.Errorf("covar 1000-tuple batch pair allocates %.0f bytes/update, budget %d — the batch path regressed (see docs/PERF.md)", bytes, maxBytesCovarBatch)
	}
}

func TestApplyBatchAllocsAnalysis(t *testing.T) {
	_, rels := retailer(5_000, 0)
	eng, err := fivm.Open(fivm.Config{Relations: rels, Features: []fivm.FeatureSpec{
		{Attr: "inventoryunits"},
		{Attr: "prize"},
		{Attr: "avghhi"},
		{Attr: "subcategory", Categorical: true},
		{Attr: "category", Categorical: true},
		{Attr: "categoryCluster", Categorical: true},
		{Attr: "zip", Categorical: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	got, bytes := measureBatchApply(t, eng)
	t.Logf("analysis 1000-tuple insert+delete batches: %.0f allocs, %.0f bytes/update", got, bytes)
	if got > maxAllocsAnalysisBatch {
		t.Errorf("analysis 1000-tuple batch pair allocates %.0f, budget %d — the batch path regressed (see docs/PERF.md)", got, maxAllocsAnalysisBatch)
	}
	if bytes > maxBytesAnalysisBatch {
		t.Errorf("analysis 1000-tuple batch pair allocates %.0f bytes/update, budget %d — the batch path regressed (see docs/PERF.md)", bytes, maxBytesAnalysisBatch)
	}
}

func TestPublishAllocsAnalysis(t *testing.T) {
	cfg, data, err := daemon.BuildEngineConfig("retailer", 5_000, true, "", "", "", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(data); err != nil {
		t.Fatal(err)
	}
	prev := eng.PublishModel(nil)
	if m := prev.(*fivm.AnalysisModel); m.Model == nil {
		t.Fatalf("no model: %s", m.FitErr)
	}
	allocs, bytes := allocsPerRun(20, func() { eng.PublishModel(prev) })
	t.Logf("analysis publish (Retailer preset, 5 000 rows): %.0f allocs, %.0f bytes", allocs, bytes)
	if allocs > maxAllocsPublishAnalysis {
		t.Errorf("analysis publish allocates %.0f, budget %d — the publish path regressed (see docs/PERF.md)", allocs, maxAllocsPublishAnalysis)
	}
	if bytes > maxBytesPublishAnalysis {
		t.Errorf("analysis publish allocates %.0f bytes, budget %d — the publish path regressed (see docs/PERF.md)", bytes, maxBytesPublishAnalysis)
	}
}
