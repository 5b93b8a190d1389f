package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/fivm"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/wal"
)

// walEngineConfigs spans all four engine kinds over the same
// two-relation schema R(A,B) ⋈ S(A,C,D), so one kill-and-recover
// harness proves the recovery invariant for every payload type; the
// covar kind runs twice, its attributes in its payloads' layout order
// and reversed.
func walEngineConfigs() map[string]fivm.Config {
	rels := func() []fivm.RelationSpec {
		return []fivm.RelationSpec{
			{Name: "R", Attrs: []string{"A", "B"}},
			{Name: "S", Attrs: []string{"A", "C", "D"}},
		}
	}
	return map[string]fivm.Config{
		"count":       {Relations: rels(), Query: "SELECT A, SUM(1) FROM R NATURAL JOIN S GROUP BY A"},
		"float":       {Relations: rels(), Query: "SELECT SUM(B * D) FROM R NATURAL JOIN S"},
		"covar":       {Relations: rels(), Attrs: []string{"B", "D"}},
		"rangedcovar": {Relations: rels(), Attrs: []string{"D", "B"}},
		"analysis":    {Relations: rels(), Features: []fivm.FeatureSpec{{Attr: "B"}, {Attr: "C", Categorical: true}, {Attr: "D"}}, Label: "D"},
	}
}

func walSSeeds() []view.Update {
	return []view.Update{
		{Rel: "S", Tuple: value.T("a1", 1, 1), Mult: 1},
		{Rel: "S", Tuple: value.T("a1", 2, 3), Mult: 1},
		{Rel: "S", Tuple: value.T("a2", 2, 2), Mult: 1},
	}
}

func walRUpdate(i int) view.Update {
	return view.Update{Rel: "R", Tuple: value.T(fmt.Sprintf("a%d", i%3+1), i), Mult: 1}
}

// modelJSON renders an engine's published result deterministically for
// bit-identical comparison (result iteration is sorted).
func modelJSON(t *testing.T, eng fivm.AnyEngine) string {
	t.Helper()
	res, err := eng.PublishModel(nil).ResultJSON()
	if err != nil {
		return "err:" + err.Error()
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// tornWriteFile injects a crash into the WAL's file layer: writes pass
// through to the real file until the byte budget runs out, then the
// crossing write lands partially and fails — producing a genuinely torn
// record on disk that the real recovery path must truncate.
type tornWriteFile struct {
	f      *os.File
	budget *atomic.Int64
}

func (w *tornWriteFile) Write(p []byte) (int, error) {
	b := w.budget.Load()
	if int64(len(p)) <= b {
		w.budget.Store(b - int64(len(p)))
		return w.f.Write(p)
	}
	n := 0
	if b > 0 {
		n, _ = w.f.Write(p[:b])
		w.budget.Store(0)
	}
	return n, errors.New("injected torn write (simulated kill mid-batch)")
}

func (w *tornWriteFile) Sync() error  { return w.f.Sync() }
func (w *tornWriteFile) Close() error { return w.f.Close() }

// tornOpenSegment tears writes on rel's shard after budget bytes; other
// shards get plain files.
func tornOpenSegment(rel string, budget *atomic.Int64) func(string) (wal.WriteFile, error) {
	marker := string(os.PathSeparator) + rel + string(os.PathSeparator)
	return func(path string) (wal.WriteFile, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		if strings.Contains(path, marker) {
			return &tornWriteFile{f: f, budget: budget}, nil
		}
		return f, nil
	}
}

// TestKillMidBatchRecoversAckedPrefix is the durability subsystem's
// core proof, run under -race for every engine kind: the writer is
// killed mid-batch by a fault injected at the WAL file layer (a write
// that lands partially and fails, exactly what SIGKILL during a page
// write leaves behind), and the recovered engine must be bit-identical
// to a clean engine that applied exactly the acknowledged prefix of the
// update stream. Ingestion is serial — at most one batch in flight — so
// the acknowledged prefix is exact, not a bound.
func TestKillMidBatchRecoversAckedPrefix(t *testing.T) {
	for name, cfg := range walEngineConfigs() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var budget atomic.Int64
			budget.Store(700) // several R batches, then a torn write
			w, err := wal.Open(wal.Config{
				Dir:           dir,
				Fsync:         wal.PolicyInterval,
				FsyncInterval: time.Hour, // isolate the torn write as the only fault
				OpenSegment:   tornOpenSegment("R", &budget),
			})
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

			// Seed S fully acknowledged, then stream R serially until the
			// injected tear crashes the pipeline.
			acked := make([]view.Update, 0, 256)
			done, err := srv.Ingest(walSSeeds())
			if err != nil {
				t.Fatal(err)
			}
			<-done
			acked = append(acked, walSSeeds()...)

			crashed := false
			for i := 0; i < 400 && !crashed; i++ {
				up := walRUpdate(i)
				done, err := srv.Ingest([]view.Update{up})
				if err != nil {
					crashed = true
					break
				}
				select {
				case <-done:
					acked = append(acked, up)
				case <-srv.crashed:
					// The in-flight batch tore mid-append: never
					// acknowledged, must not be recovered.
					crashed = true
				}
			}
			if !crashed {
				t.Fatal("fault injection never fired — raise the update count or lower the byte budget")
			}

			// The poisoned pipeline reports the crash on every surface
			// and shuts down without deadlock or a tainted checkpoint.
			for name, ingest := range ingestEntryPoints(srv) {
				if err := ingest([]view.Update{walRUpdate(0)}); !errors.Is(err, ErrCrashed) {
					t.Fatalf("%s after crash = %v, want ErrCrashed", name, err)
				}
			}
			if err := srv.Sync(func(fivm.AnyEngine) {}); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Sync after crash = %v, want ErrCrashed", err)
			}
			if ws := srv.WALStatus(); !ws.Crashed || ws.CrashError == "" {
				t.Fatalf("WALStatus after crash = %+v, want Crashed", ws)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if cp := w.Checkpoint(); cp != nil {
				t.Fatal("crashed Close wrote a checkpoint over the clean log")
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			// Recover from the real files (no injection) into a fresh
			// engine and compare against a clean replay of the acked
			// prefix.
			w2, err := wal.Open(wal.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			recovered, err := fivm.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			info, err := Recover(recovered, w2)
			if err != nil {
				t.Fatal(err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			if info.ReplayedUpdates != uint64(len(acked)) {
				t.Fatalf("recovery replayed %d updates, want the %d acknowledged", info.ReplayedUpdates, len(acked))
			}

			clean, err := fivm.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := clean.Apply(acked); err != nil {
				t.Fatal(err)
			}
			if got, want := modelJSON(t, recovered), modelJSON(t, clean); got != want {
				t.Fatalf("recovered model diverges from the acknowledged prefix:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestServeWALCheckpointRecovery covers the no-crash lifecycle: ingest,
// checkpoint mid-stream, ingest more, close (final checkpoint), then
// recover into a fresh engine — which must equal a clean engine that
// applied the whole stream, with the replay starting past the final
// checkpoint (nothing re-applied).
func TestServeWALCheckpointRecovery(t *testing.T) {
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
	var all []view.Update
	ingest := func(ups []view.Update) {
		t.Helper()
		done, err := srv.Ingest(ups)
		if err != nil {
			t.Fatal(err)
		}
		<-done
		all = append(all, ups...)
	}
	ingest(walSSeeds())
	for i := 0; i < 20; i++ {
		ingest([]view.Update{walRUpdate(i)})
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cpApplied := srv.WALStatus().AppliedUpdates
	if cpApplied != uint64(len(all)) {
		t.Fatalf("checkpoint covers %d updates, want %d", cpApplied, len(all))
	}
	for i := 20; i < 35; i++ {
		ingest([]view.Update{walRUpdate(i)})
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recovered, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Recover(recovered, w2)
	if err != nil {
		t.Fatal(err)
	}
	// Close wrote a final checkpoint covering everything: replay is empty
	// and the restored positions carry the cumulative update count.
	if info.ReplayedBatches != 0 {
		t.Fatalf("replayed %d batches past the final checkpoint, want 0", info.ReplayedBatches)
	}
	if info.CheckpointUpdates != uint64(len(all)) {
		t.Fatalf("final checkpoint covers %d updates, want %d", info.CheckpointUpdates, len(all))
	}
	clean, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Apply(all); err != nil {
		t.Fatal(err)
	}
	if got, want := modelJSON(t, recovered), modelJSON(t, clean); got != want {
		t.Fatalf("recovered model diverges:\n got %s\nwant %s", got, want)
	}

	// A server booted on the recovered state continues the stream and
	// reports the recovered counters.
	srv2, err := New(recovered, Config{WAL: w2, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if ws := srv2.WALStatus(); !ws.Enabled || ws.RecoveredUpdates != uint64(len(all)) {
		t.Fatalf("WALStatus after recovery = %+v, want recovered_updates=%d", ws, len(all))
	}
	done, err := srv2.Ingest([]view.Update{walRUpdate(100)})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if ws := srv2.WALStatus(); ws.AppliedUpdates != uint64(len(all))+1 {
		t.Fatalf("applied_updates after one more ingest = %d, want %d", ws.AppliedUpdates, len(all)+1)
	}
}

// TestWALAppendOnBatcherPathStaysCoalesced pins that running with a WAL
// keeps the pipeline semantics: read-your-writes acks, coalescing, and
// stats all behave as without one.
func TestWALAppendOnBatcherPathStaysCoalesced(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	srv, err := New(testAnalysis(t), Config{WAL: w, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ingestWait(t, srv, seedUpdates(64, 8))
	st := srv.Stats()
	if st.Applied != 72 || st.Ingested != 72 {
		t.Fatalf("stats %+v, want 72 applied/ingested", st)
	}
	ws := srv.WALStatus()
	if !ws.Enabled || ws.AppendedBatches == 0 || ws.AppliedUpdates != 72 {
		t.Fatalf("WALStatus %+v, want appends recorded and applied_updates=72", ws)
	}
}

// A WAL written when R had three attributes, replayed into an engine
// where R has two, is the schema drift Recover's doc calls a
// configuration error: it must come back as an error naming R and both
// arities, not a panic inside the replay.
func TestRecoverRejectsArityDrift(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := w.Shard("R")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.AppendRefs([]view.Update{{Rel: "R", Tuple: value.T("a1", 1, 7), Mult: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	eng, err := fivm.Open(walEngineConfigs()["covar"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(eng, w2); err == nil || !strings.Contains(err.Error(), "relation R has 2 attributes") {
		t.Fatalf("Recover = %v, want R's arity mismatch", err)
	}
}
