package serve

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/fivm"
	"repro/internal/value"
	"repro/internal/view"
)

// testAnalysis builds a two-relation engine R(A,B) ⋈ S(B,C) with
// continuous features A and B (B is the serving label) and categorical
// feature C. All test data is integer-valued so float sums are exact
// regardless of batch application order.
func testAnalysis(t testing.TB) *fivm.Analysis {
	t.Helper()
	an, err := fivm.Open(fivm.Config{
		Relations: []fivm.RelationSpec{
			{Name: "R", Attrs: []string{"A", "B"}},
			{Name: "S", Attrs: []string{"B", "C"}},
		},
		Features: []fivm.FeatureSpec{
			{Attr: "A"},
			{Attr: "B"},
			{Attr: "C", Categorical: true},
		},
		Label: "B",
	})
	if err != nil {
		t.Fatal(err)
	}
	return an.(*fivm.Analysis)
}

// seedUpdates returns n R-inserts joined 1:1 against k S rows.
func seedUpdates(n, k int) []view.Update {
	ups := make([]view.Update, 0, n+k)
	for j := 0; j < k; j++ {
		ups = append(ups, view.Update{Rel: "S", Tuple: value.T(j, j%3), Mult: 1})
	}
	for i := 0; i < n; i++ {
		ups = append(ups, view.Update{Rel: "R", Tuple: value.T(i, i%k), Mult: 1})
	}
	return ups
}

func newTestServer(t testing.TB) *Server {
	t.Helper()
	srv, err := New(testAnalysis(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// ingestEntryPoints names both ways into the admission path, for
// refusal checks that must hold on each: Ingest and an identified
// IngestBatch (a fresh ID per call).
func ingestEntryPoints(srv *Server) map[string]func([]view.Update) error {
	var seq uint64
	return map[string]func([]view.Update) error{
		"Ingest": func(ups []view.Update) error {
			_, err := srv.Ingest(ups)
			return err
		},
		"IngestBatch": func(ups []view.Update) error {
			seq++
			_, _, err := srv.IngestBatch(testBatchID(seq), ups)
			return err
		},
	}
}

func ingestWait(t testing.TB, srv *Server, ups []view.Update) {
	t.Helper()
	done, err := srv.Ingest(ups)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ingest did not drain")
	}
}

func TestIngestWaitReflectsInSnapshot(t *testing.T) {
	srv := newTestServer(t)
	if v := srv.Snapshot().Version; v != 1 {
		t.Fatalf("initial snapshot version = %d, want 1", v)
	}
	ingestWait(t, srv, seedUpdates(100, 10))
	snap := srv.Snapshot()
	if got := snap.Count(); got != 100 {
		t.Fatalf("join count = %v, want 100", got)
	}
	am, ok := snap.Model.(*fivm.AnalysisModel)
	if !ok {
		t.Fatalf("snapshot model = %T, want *fivm.AnalysisModel", snap.Model)
	}
	if am.Model == nil {
		t.Fatalf("no model after ingest: %s", am.FitErr)
	}
	if _, err := snap.Predict(map[string]value.Value{"A": value.Int(5), "C": value.Int(1)}); err != nil {
		t.Fatalf("Predict: %v", err)
	}
	st := srv.Stats()
	if st.Ingested != 110 || st.Applied != 110 {
		t.Fatalf("stats = %+v, want Ingested=Applied=110", st)
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	srv := newTestServer(t)
	ingestWait(t, srv, seedUpdates(50, 5))
	old := srv.Snapshot()
	oldCount := old.Count()
	ingestWait(t, srv, []view.Update{{Rel: "R", Tuple: value.T(999, 0), Mult: 1}})
	if got := old.Count(); got != oldCount {
		t.Fatalf("old snapshot changed: count %v -> %v", oldCount, got)
	}
	fresh := srv.Snapshot()
	if fresh.Version <= old.Version {
		t.Fatalf("version did not advance: %d -> %d", old.Version, fresh.Version)
	}
	if fresh.Count() != oldCount+1 {
		t.Fatalf("fresh count = %v, want %v", fresh.Count(), oldCount+1)
	}
}

func TestCancellingBatchLeavesStateUnchanged(t *testing.T) {
	srv := newTestServer(t)
	ingestWait(t, srv, seedUpdates(20, 4))
	before := srv.Snapshot().Count()
	// An insert and a matching delete in one Ingest call coalesce away.
	ingestWait(t, srv, []view.Update{
		{Rel: "R", Tuple: value.T(500, 1), Mult: 1},
		{Rel: "R", Tuple: value.T(500, 1), Mult: -1},
	})
	if got := srv.Snapshot().Count(); got != before {
		t.Fatalf("count = %v, want %v after cancelling batch", got, before)
	}
}

func TestDeletesMaintainModel(t *testing.T) {
	srv := newTestServer(t)
	ingestWait(t, srv, seedUpdates(30, 3))
	// Delete every R row joined to b=0: R tuples with i%3 == 0.
	var dels []view.Update
	for i := 0; i < 30; i += 3 {
		dels = append(dels, view.Update{Rel: "R", Tuple: value.T(i, 0), Mult: -1})
	}
	ingestWait(t, srv, dels)
	if got := srv.Snapshot().Count(); got != 20 {
		t.Fatalf("count after deletes = %v, want 20", got)
	}
}

// TestSingleGroupIngestStartsNoGoroutine pins the completion hand-off:
// a single-relation call returns its group's done channel, which the
// writer closes after the publish covering it, so no goroutine waits
// on the caller's behalf. The writer is held in Sync while the calls
// queue up and goroutines are counted.
func TestSingleGroupIngestStartsNoGoroutine(t *testing.T) {
	srv := newTestServer(t)
	held, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unhold := func() { releaseOnce.Do(func() { close(release) }) }
	defer unhold() // lets Close drain if an assertion fails mid-test
	synced := make(chan error, 1)
	go func() { synced <- srv.Sync(func(fivm.AnyEngine) { close(held); <-release }) }()
	<-held

	const n = 50
	before := runtime.NumGoroutine()
	dones := make([]<-chan struct{}, n)
	for i := range dones {
		done, _, err := srv.IngestBatch(testBatchID(uint64(i+1)), []view.Update{{Rel: "R", Tuple: value.T(i, 0), Mult: 1}})
		if err != nil {
			t.Fatal(err)
		}
		dones[i] = done
	}
	if grown := runtime.NumGoroutine() - before; grown >= n {
		t.Errorf("%d single-relation calls grew goroutines by %d, want fewer than %d", n, grown, n)
	}
	select {
	case <-dones[0]:
		t.Fatal("done closed while the writer was held")
	default:
	}

	unhold()
	for _, d := range dones {
		waitClosed(t, d, "held call")
	}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if got := srv.Snapshot().Stats.Applied; got != n {
		t.Fatalf("applied %d updates, want %d", got, n)
	}
}

func TestIngestErrors(t *testing.T) {
	srv := newTestServer(t)
	if _, err := srv.Ingest([]view.Update{{Rel: "Nope", Tuple: value.T(1, 2), Mult: 1}}); err == nil {
		t.Fatal("expected error for unknown relation")
	}
	// Wrong arity must be rejected at the door — inside the pipeline it
	// would panic a batcher goroutine and take the server down.
	if _, err := srv.Ingest([]view.Update{{Rel: "R", Tuple: value.T(1, 2, 3), Mult: 1}}); err == nil {
		t.Fatal("expected error for wrong tuple arity")
	}
	done, err := srv.Ingest(nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Fatal("empty ingest should complete immediately")
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	srv, err := New(testAnalysis(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Ingest(seedUpdates(200, 8)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Snapshot().Count(); got != 200 {
		t.Fatalf("count after Close = %v, want 200 (Close must drain)", got)
	}
	for name, ingest := range ingestEntryPoints(srv) {
		if err := ingest(seedUpdates(1, 1)); err != ErrClosed {
			t.Fatalf("%s after Close = %v, want ErrClosed", name, err)
		}
	}
	if err := srv.Sync(func(fivm.AnyEngine) {}); err != ErrClosed {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestSyncRunsOnWriter(t *testing.T) {
	srv := newTestServer(t)
	ingestWait(t, srv, seedUpdates(10, 2))
	var stats view.Stats
	if err := srv.Sync(func(eng fivm.AnyEngine) { stats = eng.Stats() }); err != nil {
		t.Fatal(err)
	}
	if stats.Updates == 0 {
		t.Fatal("Sync saw no engine activity")
	}
}

// The serving label is validated where it is configured: at engine
// construction. A categorical or unknown label must never reach the
// pipeline.
func TestAnalysisRejectsBadServingLabel(t *testing.T) {
	cfg := fivm.Config{
		Relations: []fivm.RelationSpec{{Name: "R", Attrs: []string{"A", "B"}}},
		Features:  []fivm.FeatureSpec{{Attr: "A"}, {Attr: "B", Categorical: true}},
	}
	cfg.Label = "B"
	if _, err := fivm.Open(cfg); err == nil {
		t.Fatal("expected error for categorical label")
	}
	cfg.Label = "Z"
	if _, err := fivm.Open(cfg); err == nil {
		t.Fatal("expected error for unknown label")
	}
}

func TestPredictValidation(t *testing.T) {
	srv := newTestServer(t)
	ingestWait(t, srv, seedUpdates(40, 4))
	snap := srv.Snapshot()
	if _, err := snap.Predict(map[string]value.Value{"A": value.Int(1)}); err == nil {
		t.Fatal("expected error for missing feature C")
	}
	// Unseen category: valid, one-hot block contributes nothing.
	if _, err := snap.Predict(map[string]value.Value{"A": value.Int(1), "C": value.Int(77)}); err != nil {
		t.Fatalf("unseen category should predict: %v", err)
	}
}

// Binned features one-hot over bin indexes, so Predict must discretize
// raw inputs the same way the lift did — any value inside a bin must
// predict identically to any other value in that bin, and differently
// from a value in another bin.
func TestPredictBinsRawInputs(t *testing.T) {
	an, err := fivm.Open(fivm.Config{
		Relations: []fivm.RelationSpec{{Name: "R", Attrs: []string{"X", "C"}}},
		Features:  []fivm.FeatureSpec{{Attr: "X"}, {Attr: "C", BinWidth: 10}},
		Label:     "X",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(an, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var ups []view.Update
	for i := 0; i < 30; i++ {
		// Bin 0 (C≈5) pairs with low X, bin 2 (C≈25) with high X.
		ups = append(ups,
			view.Update{Rel: "R", Tuple: value.T(i%5, 5), Mult: 1},
			view.Update{Rel: "R", Tuple: value.T(100+i%5, 25), Mult: 1})
	}
	ingestWait(t, srv, ups)
	snap := srv.Snapshot()
	pred := func(c value.Value) float64 {
		t.Helper()
		p, err := snap.Predict(map[string]value.Value{"C": c})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	inBin2, alsoBin2, inBin0 := pred(value.Float(25)), pred(value.Float(22.7)), pred(value.Int(5))
	if inBin2 != alsoBin2 {
		t.Fatalf("same-bin inputs predict differently: %v vs %v", inBin2, alsoBin2)
	}
	if diff := inBin2 - inBin0; diff < 50 {
		t.Fatalf("bins not distinguished: bin2=%v bin0=%v (want ≈100 apart)", inBin2, inBin0)
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want value.Value
	}{
		{"3", value.Int(3)},
		{"-7", value.Int(-7)},
		{"2.5", value.Float(2.5)},
		{"abc", value.String("abc")},
		{"", value.Null()},
		{"null", value.Null()},
	}
	for _, c := range cases {
		if got := ParseValue(c.in); !got.Equal(c.want) {
			t.Errorf("ParseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
