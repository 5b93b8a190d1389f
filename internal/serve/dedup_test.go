package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/fivm"
	"repro/internal/view"
	"repro/internal/wal"
)

func testBatchID(seq uint64) wal.BatchID {
	id := wal.BatchID{Seq: seq}
	copy(id.Origin[:], "dedup-test-origin")
	return id
}

func waitClosed(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s not applied within 5s", what)
	}
}

// TestIngestBatchDedupsReplay replays an already-applied batch ID and
// requires the replay to be the identity: done closes with nothing
// re-applied, every update reported deduped, the ingested counter and
// the model unchanged.
func TestIngestBatchDedupsReplay(t *testing.T) {
	eng, err := fivm.Open(walEngineConfigs()["count"])
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A multi-relation batch: dedup granularity is (ID, relation), so
	// the replay must suppress both groups.
	ups := append(walSSeeds(), walRUpdate(1), walRUpdate(2))
	id := testBatchID(1)
	done, deduped, err := srv.IngestBatch(id, ups)
	if err != nil {
		t.Fatal(err)
	}
	if deduped != 0 {
		t.Fatalf("fresh batch reported %d deduped updates", deduped)
	}
	waitClosed(t, done, "fresh batch")
	ingested := srv.Stats().Ingested
	model := modelJSON(t, eng)

	done2, deduped2, err := srv.IngestBatch(id, ups)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if deduped2 != len(ups) {
		t.Errorf("replay deduped %d of %d updates", deduped2, len(ups))
	}
	waitClosed(t, done2, "replayed batch")
	if got := srv.Stats().Ingested; got != ingested {
		t.Errorf("ingested counter moved on replay: %d -> %d", ingested, got)
	}
	if got := modelJSON(t, eng); got != model {
		t.Errorf("model changed on replay:\n got %s\nwas %s", got, model)
	}
	if st := srv.DedupStatus(); st.Hits != uint64(len(ups)) {
		t.Errorf("dedup hits = %d, want %d", st.Hits, len(ups))
	}

	// A fresh ID with the same content is NOT a duplicate.
	done3, deduped3, err := srv.IngestBatch(testBatchID(2), ups)
	if err != nil {
		t.Fatal(err)
	}
	if deduped3 != 0 {
		t.Errorf("distinct ID deduped %d updates", deduped3)
	}
	waitClosed(t, done3, "distinct-ID batch")
	if got := modelJSON(t, eng); got == model {
		t.Error("distinct ID applied nothing (model unchanged)")
	}
}

// TestDedupSurvivesKillRecovery crashes a durable server after one
// acknowledged identified batch (no final checkpoint — the WAL is
// closed out from under it, what SIGKILL leaves behind) and requires
// the recovered server to still recognize the batch ID: the retry a
// client sends after the crash must dedup, not double-apply.
func TestDedupSurvivesKillRecovery(t *testing.T) {
	cfg := walEngineConfigs()["count"]
	dir := t.TempDir()
	w, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Config{WAL: w, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ups := append(walSSeeds(), walRUpdate(1))
	id := testBatchID(9)
	done, _, err := srv.IngestBatch(id, ups)
	if err != nil {
		t.Fatal(err)
	}
	waitClosed(t, done, "identified batch")
	// Crash: the WAL closes first, so Close cannot write the final
	// checkpoint — the log (with the batch-ID trailer) is all that
	// survives, exactly like a kill.
	w.Close()
	_ = srv.Close()

	w2, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(eng2, w2); err != nil {
		t.Fatal(err)
	}
	srv2, err := New(eng2, Config{WAL: w2, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	model := modelJSON(t, eng2)
	done2, deduped, err := srv2.IngestBatch(id, ups)
	if err != nil {
		t.Fatalf("post-recovery replay: %v", err)
	}
	if deduped != len(ups) {
		t.Errorf("post-recovery replay deduped %d of %d updates", deduped, len(ups))
	}
	waitClosed(t, done2, "post-recovery replay")
	if got := modelJSON(t, eng2); got != model {
		t.Errorf("recovered model changed on replayed batch ID:\n got %s\nwas %s", got, model)
	}

	// The count aggregate confirms nothing was applied twice: it must
	// equal a clean engine fed the stream once.
	clean, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var once []view.Update
	once = append(once, ups...)
	if err := clean.Apply(once); err != nil {
		t.Fatal(err)
	}
	if got, want := modelJSON(t, eng2), modelJSON(t, clean); got != want {
		t.Errorf("recovered+replayed model diverges from exactly-once application:\n got %s\nwant %s", got, want)
	}
}

// TestEvictedRetryIsRefused: with room for two groups, three newer
// batches evict the first one's entry, and its late retry must be
// refused with 409 batch_id_expired instead of applied a second time.
// WAL recovery seeds the table through the same eviction.
func TestEvictedRetryIsRefused(t *testing.T) {
	eng, err := fivm.Open(walEngineConfigs()["count"])
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Config{DedupCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(srv))
	defer srv.Close()
	defer ts.Close()
	seeded, err := srv.Ingest(walSSeeds())
	if err != nil {
		t.Fatal(err)
	}
	waitClosed(t, seeded, "S seeds")
	post := func(seq uint64) (int, map[string]any) {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/v1/update?wait=1",
			strings.NewReader(`{"updates":[{"rel":"R","tuple":["a1",7]}]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(BatchIDHeader, testBatchID(seq).String())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if code, out := post(seq); code != http.StatusAccepted {
			t.Fatalf("batch %d: %d %v", seq, code, out)
		}
	}
	model, ingested := modelJSON(t, eng), srv.Stats().Ingested
	if code, out := post(1); code != http.StatusConflict || out["code"] != CodeBatchExpired {
		t.Errorf("late retry of batch 1: %d %v, want 409 %s", code, out, CodeBatchExpired)
	}
	if got := modelJSON(t, eng); got != model || srv.Stats().Ingested != ingested {
		t.Errorf("late retry changed the model:\n got %s\nwas %s", got, model)
	}
	if code, out := post(4); code != http.StatusAccepted || out["deduped"] != 1.0 {
		t.Errorf("retry of batch 4, still in the table: %d %v, want a dedup hit", code, out)
	}

	tab := newDedupTable(2)
	var refs []wal.RecoveredRef
	for seq := uint64(1); seq <= 3; seq++ {
		refs = append(refs, wal.RecoveredRef{Rel: "R", BatchRef: wal.BatchRef{ID: testBatchID(seq), Updates: 1}})
	}
	tab.seedRecovered(refs)
	if !tab.expired(testBatchID(1)) || tab.expired(testBatchID(2)) {
		t.Errorf("recovered table: batch 1 expired=%v, batch 2 expired=%v; want true, false",
			tab.expired(testBatchID(1)), tab.expired(testBatchID(2)))
	}
}

// TestDedupReportsEvictedOrigins: with room for two groups, two batches
// from each of three origins evict a group of every origin, and the
// high-water map's size shows on /v1/stats and /metrics.
func TestDedupReportsEvictedOrigins(t *testing.T) {
	eng, err := fivm.Open(walEngineConfigs()["count"])
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Config{DedupCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(srv))
	defer srv.Close()
	defer ts.Close()
	for seq := uint64(1); seq <= 2; seq++ {
		for origin := 0; origin < 3; origin++ {
			id := wal.BatchID{Seq: seq}
			copy(id.Origin[:], fmt.Sprintf("origin-%d", origin))
			done, _, err := srv.IngestBatch(id, []view.Update{walRUpdate(origin)})
			if err != nil {
				t.Fatal(err)
			}
			waitClosed(t, done, "identified batch")
		}
	}
	if got := srv.DedupStatus().EvictedOrigins; got != 3 {
		t.Errorf("EvictedOrigins = %d, want 3", got)
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if stats := get("/v1/stats"); !strings.Contains(stats, `"evicted_origins":3`) {
		t.Errorf("/v1/stats lacks evicted_origins 3: %s", stats)
	}
	if metrics := get("/metrics"); !strings.Contains(metrics, "\nfivm_dedup_evicted_origins 3\n") {
		t.Errorf("/metrics lacks fivm_dedup_evicted_origins 3")
	}
}
