package serve

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/fivm"
	"repro/internal/value"
	"repro/internal/view"
)

// TestConcurrentIngestMatchesReplay is the subsystem's core concurrency
// contract, run under -race by CI: N writer goroutines ingest interleaved
// update slices while M readers hammer the snapshot path, and the final
// drained state must equal a single-threaded replay of the same updates.
//
// Exactness is deliberate: all tuple values are small integers, so every
// float the ring touches is an exact integer and addition commutes — any
// batch interleaving must produce the bit-identical payload.
func TestConcurrentIngestMatchesReplay(t *testing.T) {
	const (
		writers    = 4
		readers    = 4
		perWriter  = 1500
		chunkSize  = 37 // deliberately odd so chunks straddle relations
		sRows      = 25
		deleteBias = 5 // every 5th R update deletes an earlier insert
	)

	// One deterministic stream, split round-robin across writers.
	rng := rand.New(rand.NewSource(42))
	var all []view.Update
	for j := 0; j < sRows; j++ {
		all = append(all, view.Update{Rel: "S", Tuple: value.T(j, j%4), Mult: 1})
	}
	var inserted []value.Tuple
	for i := 0; i < writers*perWriter; i++ {
		if i%deleteBias == deleteBias-1 && len(inserted) > 0 {
			tp := inserted[rng.Intn(len(inserted))]
			all = append(all, view.Update{Rel: "R", Tuple: tp, Mult: -1})
			continue
		}
		tp := value.T(rng.Intn(400), rng.Intn(sRows))
		inserted = append(inserted, tp)
		all = append(all, view.Update{Rel: "R", Tuple: tp, Mult: 1})
	}

	srv, err := New(testAnalysis(t), Config{MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}

	chunks := make([][][]view.Update, writers)
	for i := 0; i < len(all); i += chunkSize {
		end := i + chunkSize
		if end > len(all) {
			end = len(all)
		}
		w := (i / chunkSize) % writers
		chunks[w] = append(chunks[w], all[i:end])
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := map[string]value.Value{"A": value.Int(3), "C": value.Int(1)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := srv.Snapshot()
				_ = snap.Count()
				_, _ = snap.Model.Predict(x)
				if am, ok := snap.Model.(*fivm.AnalysisModel); ok {
					_, _ = am.Covar()
					_, _, _ = am.Fit()
				}
				_ = srv.Stats()
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for _, chunk := range chunks[w] {
				if _, err := srv.Ingest(chunk); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	ww.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	final := srv.Snapshot()
	if got := srv.Stats().Ingested; got != uint64(len(all)) {
		t.Fatalf("ingested = %d, want %d", got, len(all))
	}
	fm := final.Model.(*fivm.AnalysisModel)

	// Single-threaded replay of the identical update stream.
	replay := testAnalysis(t)
	if err := replay.Apply(all); err != nil {
		t.Fatal(err)
	}
	if !fm.Payload.Equal(replay.Payload()) {
		t.Fatalf("concurrent payload diverges from single-threaded replay:\n got %v\nwant %v",
			fm.Payload, replay.Payload())
	}

	// A fit depends on its payload alone, so the served model's equals
	// the replay's bit for bit.
	got, _, err := fm.Fit()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := replay.PublishModel(nil).(*fivm.AnalysisModel).Fit()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("served fit %+v, replay's %+v", got, want)
	}
}
