package serve

import (
	"bytes"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/fivm"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/view"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{MaxBatch: -1},
		{ChannelCap: -8},
		{MaxBatchesPerPublish: -2},
		{HighWatermark: -1},
		{ChannelCap: 4, HighWatermark: 10}, // watermark the queue can never reach
	}
	for _, cfg := range bad {
		if _, err := New(testAnalysis(t), cfg); err == nil {
			t.Errorf("New accepted nonsensical config %+v", cfg)
		}
	}
	// A watermark at or below the capacity is valid.
	srv, err := New(testAnalysis(t), Config{ChannelCap: 8, HighWatermark: 4})
	if err != nil {
		t.Fatalf("valid watermark rejected: %v", err)
	}
	srv.Close()
}

// TestBackpressureShedsAndRecovers drives the admission-control path
// end to end: with the writer stalled and tiny queues, ingestion must
// shed with 429 + Retry-After instead of blocking, and must accept
// again once the backlog drains.
func TestBackpressureShedsAndRecovers(t *testing.T) {
	an := testAnalysis(t)
	srv, err := New(an, Config{MaxBatch: 1, ChannelCap: 1, HighWatermark: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := newTestHTTP(t, srv)

	// Stall the writer between batches so the pipeline backs up. The
	// deferred unblock keeps Close from deadlocking if an assertion
	// fails mid-test.
	block := make(chan struct{})
	var unblockOnce sync.Once
	unblock := func() { unblockOnce.Do(func() { close(block) }) }
	defer unblock()
	syncEntered := make(chan struct{})
	go srv.Sync(func(fivm.AnyEngine) { close(syncEntered); <-block })
	<-syncEntered

	// Fill the pipeline until admission control sheds. The batcher keeps
	// draining into the (stalled) writer queue, so shedding needs a few
	// rounds to stick — retry with a deadline.
	one := []view.Update{{Rel: "R", Tuple: value.T(1, 1), Mult: 1}}
	deadline := time.Now().Add(10 * time.Second)
	for name, ingest := range ingestEntryPoints(srv) {
		shed := false
		for time.Now().Before(deadline) {
			err := ingest(one)
			if oe, ok := err.(*OverloadError); ok {
				if oe.Rel != "R" || oe.Depth < 1 || oe.Capacity != 1 {
					t.Fatalf("%s: OverloadError = %+v, want Rel=R Depth>=1 Capacity=1", name, oe)
				}
				shed = true
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !shed {
			t.Fatalf("%s never shed despite a stalled writer and ChannelCap=1", name)
		}
	}

	// The HTTP surface maps the overload to 429 + Retry-After. A single
	// POST can slip through while the batcher momentarily drains the
	// queue, so retry until one is shed.
	got429 := false
	for time.Now().Before(deadline) {
		resp, err := http.Post(ts.URL+"/v1/update", "application/json",
			bytes.NewBufferString(`{"updates":[{"rel":"R","tuple":[2,2]}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 response missing Retry-After header")
			}
			got429 = true
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /v1/update under overload = %d, want 429 or 202", resp.StatusCode)
		}
	}
	if !got429 {
		t.Fatal("POST /v1/update never returned 429 under a stalled writer")
	}
	if got := srv.Stats().Shed; got == 0 {
		t.Fatal("Stats().Shed = 0 after shedding")
	}

	// Recovery: release the writer; once the backlog drains, ingestion
	// must accept again.
	unblock()
	accepted := false
	for time.Now().Before(deadline) {
		done, err := srv.Ingest(one)
		if err == nil {
			<-done
			accepted = true
			break
		}
		if _, ok := err.(*OverloadError); !ok {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if !accepted {
		t.Fatal("ingestion did not recover after the backlog drained")
	}
}

func newTestHTTP(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewHandler(srv))
	t.Cleanup(ts.Close)
	return ts
}

// TestMetricsExposition scrapes /metrics after traffic and asserts the
// payload parses as Prometheus text exposition and covers every
// pipeline stage.
func TestMetricsExposition(t *testing.T) {
	srv := newTestServer(t)
	ingestWait(t, srv, seedUpdates(100, 10))
	ts := newTestHTTP(t, srv)

	if _, err := http.Get(ts.URL + "/v1/stats"); err != nil { // exercise a GET route counter
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	samples, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse as exposition format: %v", err)
	}
	if got := samples["fivm_ingest_updates_total"]; got != 110 {
		t.Errorf("fivm_ingest_updates_total = %v, want 110", got)
	}
	if got := samples["fivm_applied_updates_total"]; got != 110 {
		t.Errorf("fivm_applied_updates_total = %v, want 110", got)
	}
	if got := samples["fivm_ingest_shed_updates_total"]; got != 0 {
		t.Errorf("fivm_ingest_shed_updates_total = %v, want 0", got)
	}
	if got := samples["fivm_snapshot_version"]; got < 2 {
		t.Errorf("fivm_snapshot_version = %v, want >= 2", got)
	}
	// Every pipeline stage must have recorded observations.
	for _, stage := range []string{"build", "apply", "publish"} {
		key := `fivm_stage_seconds_count{stage="` + stage + `"}`
		if got := samples[key]; got == 0 {
			t.Errorf("%s = %v, want > 0", key, got)
		}
	}
	for _, key := range []string{
		`fivm_ingest_queue_depth{rel="R"}`,
		`fivm_ingest_queue_capacity{rel="S"}`,
		`fivm_batcher_wait_seconds_count`,
		`fivm_batch_raw_updates_count`,
		`fivm_snapshot_age_seconds`,
	} {
		if _, ok := samples[key]; !ok {
			t.Errorf("/metrics missing series %s", key)
		}
	}
	// The scrape itself and the /v1/stats GET must show up per route.
	if got := samples[`fivm_http_requests_total{route="/v1/stats",code="2xx"}`]; got != 1 {
		t.Errorf("/v1/stats request counter = %v, want 1", got)
	}
	if _, ok := samples[`fivm_http_request_seconds_count{route="/v1/update"}`]; !ok {
		t.Error("/metrics missing the /v1/update latency histogram")
	}
}

// TestRidgeFitMetrics: every published ridge refit lands in the
// fivm_ridge_iterations histogram, and one cut short by the solver's
// iteration cap — served with converged=false — is counted in
// fivm_ridge_unconverged_total (and /stats), so it no longer goes
// unnoticed.
func TestRidgeFitMetrics(t *testing.T) {
	scrape := func(srv *Server) map[string]float64 {
		t.Helper()
		var sb strings.Builder
		if err := srv.WriteMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.ParseExposition(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	srv := newTestServer(t) // default solver configuration
	ingestWait(t, srv, seedUpdates(100, 10))
	ingestWait(t, srv, seedUpdates(50, 10))
	m := scrape(srv)
	if fits := m["fivm_ridge_iterations_count"]; fits < 2 || fits > m["fivm_snapshots_total"] {
		t.Errorf("fivm_ridge_iterations_count = %v with %v snapshots, want one observation per fit", fits, m["fivm_snapshots_total"])
	}
	if got := m["fivm_ridge_unconverged_total"]; got != 0 {
		t.Errorf("fivm_ridge_unconverged_total = %v on a well-posed fit, want 0", got)
	}

	an, err := fivm.Open(fivm.Config{
		Relations: []fivm.RelationSpec{{Name: "R", Attrs: []string{"A", "B"}}, {Name: "S", Attrs: []string{"B", "C"}}},
		Features:  []fivm.FeatureSpec{{Attr: "A"}, {Attr: "B"}, {Attr: "C", Categorical: true}},
		Label:     "B",
		Ridge:     ml.RidgeConfig{Lambda: 1e-3, MaxIters: 1, Tolerance: 1e-14, Normalize: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := New(an, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { capped.Close() })
	ingestWait(t, capped, seedUpdates(100, 10))
	if got := scrape(capped)["fivm_ridge_unconverged_total"]; got == 0 {
		t.Error("fivm_ridge_unconverged_total = 0 although every fit was capped at one step")
	}
	if got := capped.Stats().RidgeUnconverged; got == 0 {
		t.Error("Stats().RidgeUnconverged = 0 although every fit was capped at one step")
	}
	body, err := capped.Snapshot().Model.ResultJSON()
	if err != nil {
		t.Fatal(err)
	}
	if body.(map[string]any)["converged"] != false {
		t.Errorf("capped model reports converged=%v", body.(map[string]any)["converged"])
	}
}

// TestStatsAndHealthzEnriched asserts the staleness fields health
// checks rely on: snapshot version and age, per-shard queues, and
// shed/accepted counts — on both /stats and /healthz.
func TestStatsAndHealthzEnriched(t *testing.T) {
	srv := newTestServer(t)
	ingestWait(t, srv, seedUpdates(20, 4))
	ts := newTestHTTP(t, srv)

	for _, path := range []string{"/v1/stats", "/v1/healthz"} {
		code, body := getJSON(t, ts.URL+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d: %v", path, code, body)
		}
		versionKey := "snapshot_version"
		if path == "/v1/healthz" {
			versionKey = "version"
		}
		if v, ok := body[versionKey].(float64); !ok || v < 2 {
			t.Errorf("%s %s = %v, want >= 2", path, versionKey, body[versionKey])
		}
		if age, ok := body["snapshot_age_seconds"].(float64); !ok || age < 0 {
			t.Errorf("%s snapshot_age_seconds = %v", path, body["snapshot_age_seconds"])
		}
		if body["shed"].(float64) != 0 {
			t.Errorf("%s shed = %v, want 0", path, body["shed"])
		}
		if body["ingested"].(float64) != 24 {
			t.Errorf("%s ingested = %v, want 24", path, body["ingested"])
		}
		shards, ok := body["shards"].(map[string]any)
		if !ok || len(shards) != 2 {
			t.Fatalf("%s shards = %v, want R and S", path, body["shards"])
		}
		r := shards["R"].(map[string]any)
		if r["capacity"].(float64) != 256 || r["arity"].(float64) != 2 {
			t.Errorf("%s shard R = %v, want capacity=256 arity=2", path, r)
		}
	}
}

// TestTraceLogEmitsSpans checks the -trace plumbing: with a TraceLog
// configured, batch and publish span lines appear.
func TestTraceLogEmitsSpans(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	srv, err := New(testAnalysis(t), Config{TraceLog: logger})
	if err != nil {
		t.Fatal(err)
	}
	ingestWait(t, srv, seedUpdates(10, 2))
	srv.Close()
	out := buf.String()
	for _, want := range []string{"batch rel=", "wait=", "build=", "apply=", "publish version="} {
		if !strings.Contains(out, want) {
			t.Errorf("trace log missing %q:\n%s", want, out)
		}
	}
}

// TestPipelineInstrumentationAllocFree pins that the per-batch metric
// recording the batcher and writer perform allocates nothing, keeping
// the serving pipeline's zero-allocation steady state intact (the
// collect-path budget is pinned separately by
// TestBatcherCollectSteadyStateAllocs, and the engine-side 38/24
// allocs-per-update budgets by fivm's alloc tests).
func TestPipelineInstrumentationAllocFree(t *testing.T) {
	srv := newTestServer(t)
	m := srv.met
	if allocs := testing.AllocsPerRun(500, func() {
		m.batcherWait.Observe(1.5e-5)
		m.batchRaw.Observe(64)
		m.stageBuild.Observe(2e-4)
		m.stageApply.Observe(3e-4)
		m.stagePublish.Observe(4e-4)
		m.ridgeIters.Observe(15)
		srv.ingested.Add(1)
		srv.shed.Add(1)
	}); allocs != 0 {
		t.Errorf("per-batch instrumentation allocates %.1f per round, want 0", allocs)
	}
}
