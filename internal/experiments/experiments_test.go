package experiments

import (
	"strings"
	"testing"
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
	sc := tinyScale()
	e3, err := E3ModelSelection(sc, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(e3) != 4 { // 400 updates / 100 batch
		t.Errorf("E3 bulks = %d", len(e3))
	}
	for _, r := range e3 {
		if !strings.Contains(r.Artifact, "selected=") {
			t.Errorf("E3 artifact = %q", r.Artifact)
		}
	}
	e4, err := E4Regression(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(e4) == 0 || !strings.Contains(e4[0].Artifact, "rmse=") {
		t.Errorf("E4 results = %+v", e4)
	}
	e5, err := E5ChowLiu(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(e5) == 0 || !strings.Contains(e5[0].Artifact, "edges=") {
		t.Errorf("E5 results = %+v", e5)
	}
}

func TestE6RendersM3(t *testing.T) {
	out, err := E6Maintenance(tinyScale())
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
	PrintAppResults(&sb, []AppResult{{Bulk: 1, Updates: 10, Artifact: "a"}})
	if !strings.Contains(sb.String(), "artifact") {
		t.Error("PrintAppResults header missing")
	}
}

func TestE8Favorita(t *testing.T) {
	rows, apps, err := E8Favorita(tinyScale())
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
	if len(apps) == 0 {
		t.Fatal("E8 produced no application rows")
	}
	for _, a := range apps {
		if !strings.Contains(a.Artifact, "rmse=") || !strings.Contains(a.Artifact, "chowliu") {
			t.Errorf("E8 artifact = %q", a.Artifact)
		}
	}
}
