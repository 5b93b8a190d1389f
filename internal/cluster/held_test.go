package cluster_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/value"
	"repro/internal/view"
)

// metricSum sums the samples of the Prometheus exposition at base whose
// series (name and labels) start with prefix.
func metricSum(t *testing.T, base, prefix string) float64 {
	t.Helper()
	text, err := client.New(base).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestMergedReadsUseHeldPartials: after acked writes through the router,
// merged reads of a covar engine send no GET /v1/partial to any worker
// — each shard's write ack carried its partial — and still equal the
// single engine. Other engines' acks carry no partial: their first read
// polls each shard once, and the second uses what that poll brought.
func TestMergedReadsUseHeldPartials(t *testing.T) {
	ctx := context.Background()
	acksCarryPartial := map[string]bool{"covar": true, "rangedcovar": true}
	for kind, cfg := range engineConfigs() {
		t.Run(kind, func(t *testing.T) {
			urls := []string{startWorker(t, cfg).URL, startWorker(t, cfg).URL}
			// The prober must run for held partials to be used; an hour
			// keeps it from running during the test.
			rt, err := cluster.New(cluster.Config{ShardURLs: urls, Engine: cfg, ProbeInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(rt.Handler())
			defer hs.Close()
			defer rt.Close()
			cli := client.New(hs.URL, client.WithRetries(0))
			ref, err := fivm.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range stream(7, 80, 10) {
				wire := make([]client.Update, len(b))
				ups := make([]view.Update, len(b))
				for i, tw := range b {
					wire[i], ups[i] = tw.wire, tw.ref
				}
				if _, err := cli.Update(ctx, wire, true); err != nil {
					t.Fatal(err)
				}
				if err := ref.Apply(ups); err != nil {
					t.Fatal(err)
				}
			}
			partials := func() float64 {
				return metricSum(t, urls[0], `fivm_http_requests_total{route="/v1/partial"`) +
					metricSum(t, urls[1], `fivm_http_requests_total{route="/v1/partial"`)
			}
			before := partials()
			// The second read gathers the same partials and answers the
			// model merged from them, so the reference publishes once.
			want := resultJSONBytes(t, ref.PublishModel(nil))
			for read := 0; read < 2; read++ {
				m, err := rt.MergedModel(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if g := resultJSONBytes(t, m); string(g) != string(want) {
					t.Fatalf("read %d diverges from the single engine\n got: %s\nwant: %s", read, g, want)
				}
			}
			wantPolls, wantHeld := 2.0, 2.0
			if acksCarryPartial[kind] {
				wantPolls, wantHeld = 0, 4
			}
			if n := partials() - before; n != wantPolls {
				t.Errorf("two merged reads sent %v GET /v1/partial to the workers, want %v", n, wantPolls)
			}
			if held := metricSum(t, hs.URL, `fivm_cluster_partials_total{source="held"}`); held != wantHeld {
				t.Errorf("fivm_cluster_partials_total{source=\"held\"} = %v, want %v", held, wantHeld)
			}
		})
	}
}

// memWorker is a restartable in-process fivm-serve worker without a
// WAL: a restart on the same address starts empty, its applied counter
// back at 0.
type memWorker struct {
	t    *testing.T
	cfg  fivm.Config
	addr string
	hsrv *http.Server
}

func (w *memWorker) URL() string { return "http://" + w.addr }

func (w *memWorker) start() {
	w.t.Helper()
	if w.addr == "" {
		w.addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", w.addr)
	if err != nil {
		w.t.Fatal(err)
	}
	w.addr = ln.Addr().String()
	eng, err := fivm.Open(w.cfg)
	if err != nil {
		w.t.Fatal(err)
	}
	srv, err := serve.New(eng, serve.Config{})
	if err != nil {
		w.t.Fatal(err)
	}
	hsrv := &http.Server{Handler: serve.NewHandler(srv)}
	w.hsrv = hsrv
	go hsrv.Serve(ln)
	w.t.Cleanup(func() {
		hsrv.Close()
		srv.Close()
	})
}

// crash kills the worker's HTTP front end, listener and connections.
func (w *memWorker) crash() { w.hsrv.Close() }

// TestHeldPartialsAreDropped: the router stops trusting a held partial
// once a probe shows the shard restarted without a WAL or went away,
// and a probe showing a write from elsewhere makes the next read poll.
// Without the prober no held partial is trusted at all.
func TestHeldPartialsAreDropped(t *testing.T) {
	ctx := context.Background()
	cfg := engineConfigs()["covar"]
	// waitProbe waits until the router's series for shard 1 reads want.
	waitProbe := func(router, series string, want float64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); metricSum(t, router, series+`{shard="1"}`) != want; {
			if time.Now().After(deadline) {
				t.Fatalf("no probe set %s{shard=\"1\"} to %v", series, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// setup acks R(1,2), R(2,3), R(3,3) and three broadcast S rows
	// through a router over two workers, reads once, and waits for a
	// probe to see shard 1's applied counter, which it returns. A
	// negative probe interval disables the prober and the wait; an hour
	// keeps the prober from running, and setup does not wait for it.
	setup := func(probe time.Duration) (*cluster.Router, string, [2]*memWorker, int) {
		var ws [2]*memWorker
		for i := range ws {
			ws[i] = &memWorker{t: t, cfg: cfg}
			ws[i].start()
		}
		rt, err := cluster.New(cluster.Config{
			ShardURLs:     []string{ws[0].URL(), ws[1].URL()},
			Engine:        cfg,
			ProbeInterval: probe,
			CoverWait:     200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(rt.Handler())
		t.Cleanup(func() {
			hs.Close()
			rt.Close()
		})
		ups := []client.Update{
			client.NewUpdate("R", 1, 1, 2), client.NewUpdate("R", 1, 2, 3), client.NewUpdate("R", 1, 3, 3),
			client.NewUpdate("S", 1, 1, 4, 5), client.NewUpdate("S", 1, 2, 4, 6), client.NewUpdate("S", 1, 3, 4, 6),
		}
		if _, err := client.New(hs.URL, client.WithRetries(0)).Update(ctx, ups, true); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.MergedModel(ctx); err != nil {
			t.Fatal(err)
		}
		applied := 3
		for _, r := range [][2]int{{1, 2}, {2, 3}, {3, 3}} {
			if rt.Map().Owner(value.T(r[0], r[1])) == 1 {
				applied++
			}
		}
		if probe > 0 && probe < time.Hour {
			waitProbe(hs.URL, "fivm_cluster_shard_applied_updates", float64(applied))
		}
		return rt, hs.URL, ws, applied
	}
	const probe = 10 * time.Millisecond

	t.Run("write from elsewhere", func(t *testing.T) {
		rt, router, ws, applied := setup(probe)
		var a int
		for a = 10; rt.Map().Owner(value.T(a, 7)) != 1; a++ {
		}
		// Written straight to the worker: no ack reaches the router.
		if _, err := client.New(ws[1].URL()).Update(ctx, []client.Update{client.NewUpdate("R", 1, a, 7), client.NewUpdate("S", 1, a, 7, 7)}, true); err != nil {
			t.Fatal(err)
		}
		waitProbe(router, "fivm_cluster_shard_applied_updates", float64(applied+2))
		m, err := rt.MergedModel(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Count(); got != 4 {
			t.Fatalf("merged count %v, want 4: the held partial predates the worker's observed counter", got)
		}
	})

	t.Run("restart without WAL", func(t *testing.T) {
		rt, router, ws, _ := setup(probe)
		ws[1].crash()
		ws[1].start()
		waitProbe(router, "fivm_cluster_shard_applied_updates", 0)
		waitProbe(router, "fivm_cluster_shard_up", 1)
		if m, err := rt.MergedModel(ctx); err == nil {
			t.Fatalf("strict read after shard 1 restarted empty served count %v", m.Count())
		}
	})

	// GET /v1/stats observes the shards as a probe does: seeing shard 1
	// restarted empty drops its held partial, so the next read polls it
	// and cannot serve the pre-restart model.
	t.Run("restart seen by stats", func(t *testing.T) {
		_, router, ws, _ := setup(time.Hour)
		ws[1].crash()
		ws[1].start()
		resp, err := http.Get(router + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp, err = http.Get(router + "/v1/model"); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("strict read after /v1/stats saw shard 1 restarted empty = %d, want 503", resp.StatusCode)
		}
		if missing := staleMissing(t, router); len(missing) != 1 || missing[0] != 1 {
			t.Fatalf("stale read missing %v, want [1]", missing)
		}
	})

	t.Run("kill", func(t *testing.T) {
		rt, router, ws, _ := setup(probe)
		ws[1].crash() // no write since its last ack
		waitProbe(router, "fivm_cluster_shard_up", 0)
		if m, err := rt.MergedModel(ctx); err == nil {
			t.Fatalf("strict read with shard 1 dead served count %v", m.Count())
		}
		if missing := staleMissing(t, router); len(missing) != 1 || missing[0] != 1 {
			t.Fatalf("stale read missing %v, want [1]", missing)
		}
	})
	t.Run("kill without prober", func(t *testing.T) {
		rt, _, ws, _ := setup(-1)
		ws[1].crash() // no write since its last ack, and no probe to notice
		if m, err := rt.MergedModel(ctx); err == nil {
			t.Fatalf("strict read with shard 1 dead served count %v", m.Count())
		}
	})
}

// staleMissing reads GET /v1/model?stale=1 from the router, which must
// answer 200, and returns the shards its envelope lists as missing.
func staleMissing(t *testing.T, router string) []int {
	t.Helper()
	resp, err := http.Get(router + "/v1/model?stale=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Cluster struct {
			Missing []int `json:"missing"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale read = %d, want 200", resp.StatusCode)
	}
	return body.Cluster.Missing
}
