package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/fivm"
	"repro/internal/value"
	"repro/internal/view"
)

// postStatus posts body to url and answers the status and decoded body.
func postStatus(url, body string) (int, map[string]any, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	err = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out, err
}

// fitNow waits for the ridge fit of srv's newest snapshot, running it if
// nobody has.
func fitNow(t *testing.T, srv *Server) {
	t.Helper()
	if _, err := srv.Snapshot().Model.ResultJSON(); err != nil {
		t.Fatal(err)
	}
}

// TestAckDoesNotWaitForTheRefit: a write is acknowledged once its batch
// is applied and a snapshot covering it is published; the ridge fit of
// that snapshot runs after, off the writer. With the fit held, Ingest's
// done still closes, while a read of the new version waits for its fit
// and then answers a model that counts the write (read-your-writes).
func TestAckDoesNotWaitForTheRefit(t *testing.T) {
	srv := newTestServer(t)
	ingestWait(t, srv, seedUpdates(100, 10))
	fitNow(t, srv) // so the hold below catches the next version's fit
	before := srv.Snapshot().Model.Count()
	release, _ := holdFits(srv)
	defer release()
	ts := newTestHTTP(t, srv)

	done, err := srv.Ingest(seedUpdates(50, 10))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the ack waited for the held ridge fit")
	}
	after := srv.Snapshot().Model.Count()
	if after == before {
		t.Fatalf("count %v did not move; the test is vacuous", after)
	}

	type read struct {
		status int
		body   map[string]any
		err    error
	}
	got := make(chan read, 1)
	go func() {
		var r read
		resp, err := http.Get(ts.URL + "/v1/model")
		if r.err = err; err == nil {
			defer resp.Body.Close()
			r.status, r.err = resp.StatusCode, json.NewDecoder(resp.Body).Decode(&r.body)
		}
		got <- r
	}()
	select {
	case r := <-got:
		t.Fatalf("GET /v1/model answered while its version's fit was held: %d %v %v", r.status, r.body, r.err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	select {
	case r := <-got:
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("GET /v1/model: %d %v", r.status, r.err)
		}
		if r.body["count"] != after {
			t.Errorf("read after the ack: count %v, want %v (the write's)", r.body["count"], after)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GET /v1/model still waits after the fit was released")
	}
}

// TestReadersOfOneSnapshotShareOneFit: concurrent readers of one
// version trigger one fit between them (the fitter's or a reader's) and
// answer identical bodies; run under -race with the fitter racing them.
func TestReadersOfOneSnapshotShareOneFit(t *testing.T) {
	srv := newTestServer(t)
	ingestWait(t, srv, seedUpdates(100, 10))
	fitNow(t, srv)
	release, fits := holdFits(srv)
	defer release()
	ts := newTestHTTP(t, srv)
	// One relation's updates: one batch, so one new version.
	ingestWait(t, srv, seedUpdates(50, 10)[10:])
	version := srv.Snapshot().Version

	const readers = 8
	bodies := make([]string, readers)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/model")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("reader %d: %d %v %s", i, resp.StatusCode, err, b)
			}
			bodies[i] = string(b)
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the readers pile up on the held fit
	release()
	wg.Wait()
	if v := srv.Snapshot().Version; v != version {
		t.Fatalf("version %d published meanwhile; want only %d", v, version)
	}
	if n := fits.Load(); n != 1 {
		t.Errorf("%d readers of one version ran %d fits, want 1", readers, n)
	}
	for i, b := range bodies {
		if b != bodies[0] {
			t.Errorf("reader %d answered\n%s\nreader 0\n%s", i, b, bodies[0])
		}
	}
}

// TestFullCategoryDictionaryRefusesBatch: with the category dictionary
// limited to 8 more values, a batch carrying a ninth new category is
// refused at admission with 507 categories_full — before it reaches the
// writer, whose lift would otherwise panic — the model stays as it was,
// and the writer keeps applying valid batches.
func TestFullCategoryDictionaryRefusesBatch(t *testing.T) {
	restore := limitCategories(8)
	defer restore()
	srv := newTestServer(t)
	ts := newTestHTTP(t, srv)
	// Category values no earlier run of this process interned.
	prefix := fmt.Sprintf("full-%d-", time.Now().UnixNano())
	batch := func(cats ...int) string {
		var ups []string
		for _, c := range cats {
			ups = append(ups, fmt.Sprintf(`{"rel":"S","tuple":[%d,"%s%d"]},{"rel":"R","tuple":[%d,%d]}`, c, prefix, c, c, c))
		}
		return `{"updates":[` + strings.Join(ups, ",") + `]}`
	}
	if status, body, err := postStatus(ts.URL+"/v1/update?wait=1", batch(0, 1, 2, 3, 4, 5, 6, 7)); err != nil || status != http.StatusAccepted {
		t.Fatalf("eight categories: %d %v %v", status, body, err)
	}
	_, model := getJSON(t, ts.URL+"/v1/model")

	status, body, err := postStatus(ts.URL+"/v1/update?wait=1", batch(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInsufficientStorage || body["code"] != CodeCategoriesFull {
		t.Errorf("a ninth category: %d %v, want 507 %s", status, body, CodeCategoriesFull)
	}
	if _, again := getJSON(t, ts.URL+"/v1/model"); fmt.Sprint(again) != fmt.Sprint(model) {
		t.Errorf("after the refused batch the model is\n%v\nwant\n%v", again, model)
	}

	// The writer is alive: a batch of known categories applies.
	ingestWait(t, srv, []view.Update{{Rel: "R", Tuple: value.T(9, 3), Mult: 1}})
	if got, want := srv.Snapshot().Model.Count(), model["count"].(float64)+1; got != want {
		t.Errorf("count after a valid batch = %v, want %v", got, want)
	}
	_, stats := getJSON(t, ts.URL+"/v1/stats")
	if got := stats["categories"]; got != float64(fivm.Categories()) {
		t.Errorf("/v1/stats categories = %v, want %d", got, fivm.Categories())
	}
}
