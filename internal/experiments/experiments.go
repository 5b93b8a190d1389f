// Package experiments hosts the runnable reproductions of every
// evaluation artifact in the paper: Figure 1's worked example (E1,
// Figure1), the §1 throughput claims (E2), the application tabs of
// Figure 2 (E3–E6), the batch-size/aggregate-count sweeps (E7), the
// second demo database (E8), and the design ablations (A1, A3).
// cmd/fivm-bench prints their tables; docs/REPRODUCTION.md records one
// run of `fivm-bench -exp all -scale small`.
//
// RunTabs is the one computation of Figure 2's tabs, over a preset's
// feature lists (daemon.Presets): E3, E4 and E5 print one column each
// of its Retailer run, E6 that run's M3 code, E8 its Favorita run, and
// cmd/fivm-demo renders it tab by tab.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
	"unicode/utf8"

	"repro/fivm"
	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/value"
	"repro/internal/view"
)

// Scale configures experiment sizing; Small keeps everything under a
// second per row for tests, Paper approximates the demo's scale.
type Scale struct {
	// InventoryRows sizes the Retailer fact table.
	InventoryRows int
	// StreamLen is the number of streamed updates per measurement.
	StreamLen int
	// BatchSize is the default update bulk size.
	BatchSize int
}

// SmallScale is used by tests and smoke runs.
func SmallScale() Scale { return Scale{InventoryRows: 2_000, StreamLen: 2_000, BatchSize: 500} }

// DemoScale approximates the demo paper's workload: bulks of 10K
// updates against a larger fact table.
func DemoScale() Scale { return Scale{InventoryRows: 50_000, StreamLen: 30_000, BatchSize: 10_000} }

// retailerSetup bundles the shared experiment fixture.
type retailerSetup struct {
	db       *dataset.Database
	fspecs   []fivm.RelationSpec
	bspecs   []baseline.RelSpec
	aggAttrs []string
}

func newRetailerSetup(sc Scale, seed int64) retailerSetup {
	cfg := dataset.DefaultRetailerConfig()
	cfg.InventoryRows = sc.InventoryRows
	cfg.Seed = seed
	db := dataset.Retailer(cfg)
	var s retailerSetup
	s.db = db
	for _, r := range db.Relations {
		s.fspecs = append(s.fspecs, fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs})
		s.bspecs = append(s.bspecs, baseline.RelSpec{Name: r.Name, Schema: r.Schema()})
	}
	s.aggAttrs = []string{"inventoryunits", "prize", "avghhi", "maxtemp", "medianage"}
	return s
}

// openLoaded opens cfg over rels and bulk-loads data into the engine.
func openLoaded(cfg fivm.Config, rels []fivm.RelationSpec, data map[string][]value.Tuple) (fivm.AnyEngine, error) {
	cfg.Relations = rels
	eng, err := fivm.Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.Init(data); err != nil {
		return nil, err
	}
	return eng, nil
}

func (s retailerSetup) stream(total int, deleteRatio float64, seed int64) []view.Update {
	st, err := dataset.NewStream(s.db, dataset.StreamConfig{
		Relation: "Inventory", Total: total, DeleteRatio: deleteRatio, Seed: seed,
	})
	if err != nil {
		panic(err) // deterministic configuration; cannot fail at runtime
	}
	return st.Updates
}

// Throughput is one measured system row: updates/second, total time,
// heap allocations per update, and per-batch latency percentiles.
type Throughput struct {
	System    string
	Updates   int
	Elapsed   time.Duration
	PerSecond float64
	// AllocsPerUpdate is the runtime.MemStats.Mallocs delta across the
	// timed loop, divided by the update count.
	AllocsPerUpdate float64
	// P50 and P99 are per-batch maintenance latency percentiles.
	P50, P99 time.Duration
	Note     string
}

func measure(system string, updates []view.Update, batch int, apply func([]view.Update) error) (Throughput, error) {
	// Sized up front so the harness allocates nothing inside the loop.
	lat := make([]time.Duration, 0, (len(updates)+batch-1)/batch)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < len(updates); i += batch {
		j := i + batch
		if j > len(updates) {
			j = len(updates)
		}
		b0 := time.Now()
		if err := apply(updates[i:j]); err != nil {
			return Throughput{}, fmt.Errorf("%s: %w", system, err)
		}
		lat = append(lat, time.Since(b0))
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	p50, p99 := percentiles(lat)
	return Throughput{
		System:          system,
		Updates:         len(updates),
		Elapsed:         el,
		PerSecond:       float64(len(updates)) / el.Seconds(),
		AllocsPerUpdate: float64(m1.Mallocs-m0.Mallocs) / float64(len(updates)),
		P50:             p50,
		P99:             p99,
	}, nil
}

// percentiles returns the 50th and 99th percentile of the batch
// latencies (nearest-rank on the sorted sample).
func percentiles(lat []time.Duration) (p50, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	sorted := make([]time.Duration, len(lat))
	copy(sorted, lat)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(p float64) time.Duration {
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return rank(0.50), rank(0.99)
}

// E2 reproduces the §1 throughput claim: single-thread maintenance of
// the COVAR aggregate batch over the 5-way Retailer join, F-IVM versus
// the flat first-order IVM baseline versus full re-evaluation. The
// expected shape: F-IVM ≫ FlatIVM ≫ Reeval, with F-IVM in the
// ~10K-updates/sec band for compound aggregates.
func E2(sc Scale, deleteRatio float64) ([]Throughput, error) {
	s := newRetailerSetup(sc, 1)
	ups := s.stream(sc.StreamLen, deleteRatio, 2)
	data := s.db.TupleMap()
	var rows []Throughput

	eng, err := openLoaded(fivm.Config{Attrs: s.aggAttrs}, s.fspecs, data)
	if err != nil {
		return nil, err
	}
	r, err := measure("F-IVM (COVAR ring)", ups, sc.BatchSize, eng.Apply)
	if err != nil {
		return nil, err
	}
	r.Note = fmt.Sprintf("%d scalar aggregates shared in one payload", 1+len(s.aggAttrs)+len(s.aggAttrs)*(len(s.aggAttrs)+1)/2)
	rows = append(rows, r)

	flat, err := baseline.NewFlatIVM(s.bspecs, s.aggAttrs)
	if err != nil {
		return nil, err
	}
	if err := flat.Init(data); err != nil {
		return nil, err
	}
	r, err = measure("FlatIVM (first-order, unshared)", ups, sc.BatchSize, flat.Apply)
	if err != nil {
		return nil, err
	}
	r.Note = fmt.Sprintf("materializes flat join (%d tuples)", flat.JoinSize())
	rows = append(rows, r)

	// Re-evaluation is orders of magnitude slower; cap its stream so the
	// experiment finishes, then report the extrapolated rate.
	reUps := ups
	if len(reUps) > 4*sc.BatchSize {
		reUps = reUps[:4*sc.BatchSize]
	}
	re, err := baseline.NewReeval(s.bspecs, s.aggAttrs)
	if err != nil {
		return nil, err
	}
	if err := re.Init(data); err != nil {
		return nil, err
	}
	r, err = measure("Reeval (from scratch per batch)", reUps, sc.BatchSize, re.Apply)
	if err != nil {
		return nil, err
	}
	r.Note = fmt.Sprintf("measured on first %d updates", len(reUps))
	rows = append(rows, r)
	return rows, nil
}

// E2Compound measures the compound mixed categorical/continuous payload
// (the "batches of up to thousands of aggregates" claim): the one-hot
// expansion turns a handful of features into thousands of maintained
// scalar aggregates.
func E2Compound(sc Scale, deleteRatio float64) (Throughput, int, error) {
	s := newRetailerSetup(sc, 1)
	features := []fivm.FeatureSpec{
		{Attr: "inventoryunits"},
		{Attr: "prize"},
		{Attr: "avghhi"},
		{Attr: "subcategory", Categorical: true},
		{Attr: "category", Categorical: true},
		{Attr: "categoryCluster", Categorical: true},
		{Attr: "zip", Categorical: true},
	}
	eng, err := openLoaded(fivm.Config{Features: features}, s.fspecs, s.db.TupleMap())
	if err != nil {
		return Throughput{}, 0, err
	}
	sigma, err := eng.PublishModel(nil).(*fivm.AnalysisModel).Covar()
	if err != nil {
		return Throughput{}, 0, err
	}
	nAggs := 1 + sigma.Dim() + sigma.Dim()*(sigma.Dim()+1)/2
	ups := s.stream(sc.StreamLen, deleteRatio, 3)
	r, err := measure("F-IVM (generalized ring)", ups, sc.BatchSize, eng.Apply)
	if err != nil {
		return Throughput{}, 0, err
	}
	r.Note = fmt.Sprintf("%d one-hot scalar aggregates in one payload", nAggs)
	return r, nAggs, nil
}

// PrintThroughput renders rows as one harness table, the system column
// as wide as its longest name.
func PrintThroughput(w io.Writer, rows []Throughput) {
	width := len("system")
	for _, r := range rows {
		width = max(width, utf8.RuneCountInString(r.System))
	}
	fmt.Fprintf(w, "%-*s %10s %12s %14s %14s %10s %10s  %s\n", width,
		"system", "updates", "elapsed", "updates/sec", "allocs/update", "batch-p50", "batch-p99", "note")
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s %10d %12s %14.0f %14.1f %10s %10s  %s\n", width,
			r.System, r.Updates, r.Elapsed.Round(time.Millisecond), r.PerSecond, r.AllocsPerUpdate,
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.Note)
	}
}
