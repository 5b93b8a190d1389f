package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/daemon"
)

// tinyScale keeps experiment smoke tests fast.
func tinyScale() Scale { return Scale{InventoryRows: 800, StreamLen: 400, BatchSize: 100} }

func TestE2ProducesExpectedShape(t *testing.T) {
	rows, err := E2(tinyScale(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	byName := map[string]Throughput{}
	for _, r := range rows {
		if r.PerSecond <= 0 {
			t.Errorf("%s: non-positive rate", r.System)
		}
		if r.AllocsPerUpdate <= 0 {
			t.Errorf("%s: allocs/update not measured", r.System)
		}
		byName[r.System] = r
	}
	fivmRow := rows[0]
	reRow := rows[2]
	// The central shape of the paper: incremental maintenance beats
	// re-evaluation. (FlatIVM sits between at realistic scales; at tiny
	// scale its ordering vs F-IVM can flip, so it is not asserted.)
	if fivmRow.PerSecond <= reRow.PerSecond {
		t.Errorf("shape violated: F-IVM %.0f/s not faster than reeval %.0f/s",
			fivmRow.PerSecond, reRow.PerSecond)
	}
}

func TestE2Compound(t *testing.T) {
	r, nAggs, err := E2Compound(tinyScale(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if nAggs < 100 {
		t.Errorf("one-hot aggregate count = %d, expected hundreds", nAggs)
	}
	if r.PerSecond <= 0 {
		t.Error("non-positive rate")
	}
}

func TestE3E4E5Run(t *testing.T) {
	const threshold = 0.2
	_, rows, err := PresetTabs("retailer", tinyScale(), threshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // the initial evaluation + 400 updates / 100 batch
		t.Fatalf("E3–E5 rows = %d, want 5", len(rows))
	}
	for i, r := range rows {
		if r.Bulk != i || (i > 0 && r.Updates != 100) {
			t.Errorf("row %d: bulk %d with %d updates", i, r.Bulk, r.Updates)
		}
		for _, col := range []struct{ got, want string }{
			{SelectionColumn(r), "selected="},
			{RegressionColumn(r), "rmse="},
			{ChowLiuColumn(r), "first=ksn->"},
		} {
			if !strings.Contains(col.got, col.want) {
				t.Errorf("row %d: column %q lacks %q", i, col.got, col.want)
			}
		}
		// Selection and ranking come from the same MI matrix.
		var want []string
		for _, a := range r.Ranking {
			if a.Attr == "inventoryunits" {
				t.Errorf("row %d: the label is ranked against itself", i)
			}
			if a.MI >= threshold {
				want = append(want, a.Attr)
			}
		}
		if fmt.Sprint(want) != fmt.Sprint(r.Selected) {
			t.Errorf("row %d: selected %v, ranking above the threshold %v", i, r.Selected, want)
		}
		if r.Tree.Root != "ksn" || len(r.Tree.Edges) != len(r.Ranking) {
			t.Errorf("row %d: tree rooted at %s with %d edges over %d other attributes", i, r.Tree.Root, len(r.Tree.Edges), len(r.Ranking))
		}
		// Every bulk keeps its own fit, not the last one warm-started
		// in place.
		if i > 0 && r.Model == rows[i-1].Model {
			t.Errorf("row %d shares its ridge model with row %d", i, i-1)
		}
	}
}

// TestTabsCategoricalLabel checks that a label the regression cannot
// fit (ksn is categorical and no regression feature) leaves the other
// tabs running and reports why the Regression tab is empty.
func TestTabsCategoricalLabel(t *testing.T) {
	p := daemon.Presets["retailer"]
	sc := tinyScale()
	_, rows, err := RunTabs(TabsConfig{
		Preset: p, DB: p.Generate(sc.InventoryRows), Label: "ksn", Threshold: 0.2, Root: "ksn",
		Updates: sc.BatchSize, BulkSize: sc.BatchSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.RidgeErr == nil || r.Model != nil || len(r.Ranking) == 0 {
			t.Errorf("bulk %d: ridge err %v, model %v, %d ranked", r.Bulk, r.RidgeErr, r.Model, len(r.Ranking))
		}
		if got := RegressionColumn(r); !strings.HasPrefix(got, "ridge: ") {
			t.Errorf("bulk %d: regression column %q", r.Bulk, got)
		}
	}
}

func TestE6RendersM3(t *testing.T) {
	out, _, err := PresetTabs("retailer", tinyScale(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"V@locn[]", "DECLARE MAP", "Inventory"} {
		if !strings.Contains(out, frag) {
			t.Errorf("E6 output missing %q", frag)
		}
	}
}

func TestE7Sweeps(t *testing.T) {
	rows, err := E7BatchSize(tinyScale(), []int{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("batch sweep rows = %d", len(rows))
	}
	// Larger batches must not be slower by an order of magnitude (they
	// amortize); allow noise but catch inversions of the basic shape.
	if rows[1].PerSecond < rows[0].PerSecond/10 {
		t.Errorf("batch=100 at %.0f/s vastly slower than batch=10 at %.0f/s",
			rows[1].PerSecond, rows[0].PerSecond)
	}

	aggRows, err := E7AggCount(tinyScale(), []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggRows) != 2 {
		t.Fatalf("agg sweep rows = %d", len(aggRows))
	}
}

func TestA1AndA3(t *testing.T) {
	rows, err := A1Sharing(tinyScale(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("A1 rows = %d", len(rows))
	}
	// Sharing must win: one compound tree vs 10 separate trees.
	if rows[0].PerSecond <= rows[1].PerSecond {
		t.Errorf("sharing ablation inverted: compound %.0f/s vs unshared %.0f/s",
			rows[0].PerSecond, rows[1].PerSecond)
	}

	// Wall-clock throughput is noisy when the package test binaries run
	// in parallel (a starved run can lose an order of magnitude), so
	// take the best of two samples per ratio before comparing.
	r0, r1 := 0.0, 0.0
	for i := 0; i < 2; i++ {
		a3, err := A3Deletes(tinyScale(), []float64{0, 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if len(a3) != 2 {
			t.Fatalf("A3 rows = %d", len(a3))
		}
		r0 = max(r0, a3[0].PerSecond)
		r1 = max(r1, a3[1].PerSecond)
	}
	// The paper's claim is that deletes cost no more than inserts
	// (negative payloads through the same machinery), so the slow
	// direction keeps the tight order-of-magnitude bound. The reverse
	// direction still guards the insert path against collapsing, but
	// with a wider band: the indexed delta path legitimately runs
	// delete-heavy streams ~3-4x faster than insert-only
	// (annihilations shrink the views every later update touches).
	if r1 < r0/10 {
		t.Errorf("delete-heavy throughput more than 10x below insert-only: %.0f vs %.0f", r1, r0)
	}
	if r0 < r1/25 {
		t.Errorf("insert-only throughput more than 25x below delete-heavy: %.0f vs %.0f", r0, r1)
	}
}

func TestPrintHelpers(t *testing.T) {
	var sb strings.Builder
	long := "ranged payloads (RingCofactor<d,idx,cnt>) and then some"
	PrintThroughput(&sb, []Throughput{
		{System: "x", Updates: 10, PerSecond: 5, AllocsPerUpdate: 2.5, Note: "n"},
		{System: long, Updates: 10, PerSecond: 5, Note: "n"},
	})
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], "updates/sec") || !strings.Contains(lines[0], "allocs/update") {
		t.Fatalf("PrintThroughput wants one header and two rows:\n%s", sb.String())
	}
	if !strings.Contains(lines[1], " 2.5 ") {
		t.Errorf("allocs/update column missing: %q", lines[1])
	}
	// Every row's updates column ends where the header's does, however
	// long a system name is.
	col := strings.Index(lines[0], "updates ") + len("updates")
	for _, l := range lines[1:] {
		if len(l) < col || l[col-2:col] != "10" {
			t.Errorf("misaligned row %q under header %q", l, lines[0])
		}
	}
	sb.Reset()
	PrintTabs(&sb, []TabBulk{{Bulk: 1, Updates: 10}}, func(TabBulk) string { return "a" })
	if !strings.Contains(sb.String(), "artifact") || !strings.HasSuffix(sb.String(), "  a\n") {
		t.Errorf("PrintTabs wants a header and the column:\n%s", sb.String())
	}
}

func TestE8Favorita(t *testing.T) {
	rows, err := E8Throughput(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("E8 throughput rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PerSecond <= 0 {
			t.Errorf("%s: non-positive rate", r.System)
		}
	}
	_, apps, err := PresetTabs("favorita", tinyScale(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 5 {
		t.Fatalf("E8 tab rows = %d, want 5", len(apps))
	}
	for _, a := range apps {
		if col := AllColumns(a); !strings.Contains(col, "rmse=") || !strings.Contains(col, "first=item->") {
			t.Errorf("E8 column = %q", col)
		}
	}
}
