package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/cluster"
	"repro/internal/faultnet"
	"repro/internal/view"
)

// chaosCluster is a cluster whose router reaches every worker only
// through a faultnet proxy, so the router's retry/breaker path is
// exercised by real transport faults, not mocks.
type chaosCluster struct {
	rt      *cluster.Router
	url     string // the router's HTTP surface
	cli     *client.Client
	proxies []*faultnet.Proxy
	workers []*durableWorker
}

// startChaosCluster boots n WAL-backed workers, one seeded fault proxy
// per worker, and a router whose shard URLs point at the proxies. A
// worker restarted with crash() and start() keeps its address, so its
// proxy reaches the recovered process unchanged. The shard HTTP
// client disables keep-alives (one request = one connection = one
// scheduled fault decision) and carries a 1s timeout so blackholed
// connections resolve instead of hanging an attempt forever.
func startChaosCluster(t *testing.T, cfg fivm.Config, n int, seed int64, w faultnet.Weights) *chaosCluster {
	t.Helper()
	cc := &chaosCluster{}
	urls := make([]string, n)
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		ws := &durableWorker{t: t, cfg: cfg, dir: filepath.Join(dir, fmt.Sprintf("shard-%d", i))}
		ws.start()
		p, err := faultnet.Start(ws.addr, faultnet.NewRandSchedule(seed+int64(i), w))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		cc.workers = append(cc.workers, ws)
		cc.proxies = append(cc.proxies, p)
		urls[i] = p.URL()
	}
	rt, err := cluster.New(cluster.Config{
		ShardURLs:     urls,
		Engine:        cfg,
		ProbeInterval: -1,
		CoverWait:     15 * time.Second,
		RetryBudget:   4 * time.Second,
		HTTPClient: &http.Client{
			Timeout:   time.Second,
			Transport: &http.Transport{DisableKeepAlives: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		hs.Close()
		rt.Close()
	})
	cc.rt, cc.url = rt, hs.URL
	// Retries disabled on the test client: the test's own ack-until
	// loop is the retrying writer, re-sending the identical batch under
	// its fixed ID — the exactly-once usage pattern.
	cc.cli = client.New(hs.URL, client.WithRetries(0))
	return cc
}

// workerRows reads the router's per-worker /v1/stats rows, polling
// until every row answered: the router's stats fetch crosses the
// faulty links too, and a failed fetch leaves its row zeroed.
func (cc *chaosCluster) workerRows(t *testing.T) []workerRow {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var body struct {
			Workers []workerRow `json:"workers"`
		}
		resp, err := http.Get(cc.url + "/v1/stats")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
		}
		ok := err == nil && len(body.Workers) == len(cc.workers)
		for _, r := range body.Workers {
			ok = ok && r.OK
		}
		if ok {
			return body.Workers
		}
		if time.Now().After(deadline) {
			t.Fatalf("router stats never reached every worker: %v %+v", err, body.Workers)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// workerRow is one worker's row in the router's /v1/stats body.
type workerRow struct {
	ID             int    `json:"id"`
	OK             bool   `json:"ok"`
	AckedUpdates   uint64 `json:"acked_updates"`
	AppliedUpdates uint64 `json:"applied_updates"`
}

// mergedJSON is the router's strict merged model, rendered.
func (cc *chaosCluster) mergedJSON(t *testing.T) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m, err := cc.rt.MergedModel(ctx)
	if err != nil {
		t.Fatalf("merged model: %v", err)
	}
	return resultJSONBytes(t, m)
}

// mustAck re-sends the identical batch under one fixed ID until the
// router acks it. Every failed delivery before the final ack is a real
// duplicate-delivery hazard the dedup layer must absorb.
func mustAck(t *testing.T, cli *client.Client, id string, ups []client.Update) *client.UpdateAck {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		ack, err := cli.UpdateWithID(ctx, id, ups, true)
		cancel()
		if err == nil {
			return ack
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("batch %s never acked: %v", id, lastErr)
	return nil
}

// TestClusterChaosEquivalence drives the equivalence stream through a
// 2-shard cluster of WAL-backed workers whose router↔worker links
// inject seeded faults — added latency, mid-request resets, blackholes,
// truncated responses, and one full partition of shard 0 mid-stream —
// with the writer retrying every batch under a fixed ID until acked.
// Right after the partition, shard 1 crashes and recovers from its WAL,
// and the batch acked just before the crash is re-driven under its ID:
// the recovered worker must answer it from the dedup entries its WAL
// replay seeded, leaving the merged model unchanged. For every
// configuration of engineConfigs the final merged model must be
// bit-identical to a clean single engine fed the same stream once:
// retries re-deliver, the dedup layer makes redelivery the ring
// identity.
func TestClusterChaosEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes seconds per engine kind")
	}
	batches := stream(7, 160, 20)
	weights := faultnet.Weights{
		None: 70, Latency: 10, Reset: 8, Blackhole: 4, Truncate: 8,
		MaxLatency: 20 * time.Millisecond, MaxAfter: 200,
	}
	configs := engineConfigs()
	kinds := make([]string, 0, len(configs))
	for k := range configs {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for i, kind := range kinds {
		cfg, seed := configs[kind], int64(1000+100*i)
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			// The reference publishes wherever the test reads the
			// cluster after a write.
			ref, err := fivm.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			apply := func(bs [][]twin) []byte {
				for _, b := range bs {
					ups := make([]view.Update, len(b))
					for i, tw := range b {
						ups[i] = tw.ref
					}
					if err := ref.Apply(ups); err != nil {
						t.Fatal(err)
					}
				}
				return resultJSONBytes(t, ref.PublishModel(nil))
			}
			half := len(batches) / 2
			wantRecovered := apply(batches[:half+1])
			want := apply(batches[half+1:])

			cc := startChaosCluster(t, cfg, 2, seed, weights)
			for bi, b := range batches {
				wire := make([]client.Update, len(b))
				for i, tw := range b {
					wire[i] = tw.wire
				}
				id := cc.cli.NextBatchID()
				if bi == half {
					// Full partition of shard 0: the first delivery
					// attempt of this batch is doomed (or at best
					// partial), then the link heals and the SAME ID is
					// re-driven to completion.
					cc.proxies[0].Partition(true)
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					_, _ = cc.cli.UpdateWithID(ctx, id, wire, true)
					cancel()
					cc.proxies[0].Partition(false)
				}
				mustAck(t, cc.cli, id, wire)
				if bi == half {
					// kill -9 of shard 1 and a restart on its WAL, then
					// a client retry of the batch acked just before: the
					// recovered worker must answer it from the dedup
					// entries its WAL replay seeded.
					cc.workers[1].crash()
					cc.workers[1].start()
					if got := cc.mergedJSON(t); string(got) != string(wantRecovered) {
						t.Fatalf("merged model after shard 1 recovered diverges from the acked prefix\n got: %s\nwant: %s", got, wantRecovered)
					}
					mustAck(t, cc.cli, id, wire)
					if got := cc.mergedJSON(t); string(got) != string(wantRecovered) {
						t.Fatalf("re-driving batch %s after shard 1 recovered changed the merged model\n got: %s\nwant: %s", id, got, wantRecovered)
					}
				}
			}

			if got := cc.mergedJSON(t); string(got) != string(want) {
				t.Errorf("chaos merged model diverges from clean single engine\n got: %s\nwant: %s", got, want)
			}
			// Not equality: a truncated response leaves an applied
			// sub-batch unacked, and its retry is deduped, not counted.
			for _, r := range cc.workerRows(t) {
				if r.AckedUpdates > r.AppliedUpdates {
					t.Errorf("worker %d acked %d updates but applied only %d", r.ID, r.AckedUpdates, r.AppliedUpdates)
				}
			}
			var conns, faulted int64
			for _, p := range cc.proxies {
				st := p.Stats()
				conns += st.Conns
				faulted += st.Partitioned
				for k, v := range st.Faults {
					if k != faultnet.None.String() {
						faulted += v
					}
				}
			}
			if faulted == 0 {
				t.Errorf("no fault fired across %d proxied connections; the schedule (seed %d) exercised nothing", conns, seed)
			}
		})
	}
}

// TestClusterDuplicateDelivery replays a fully-acked batch ID against a
// fault-free cluster and requires the replay to return the original
// ack shape with every update reported deduped, without moving any
// worker's applied counter or changing the merged model — redelivery
// is the identity, not a second application.
func TestClusterDuplicateDelivery(t *testing.T) {
	ctx := context.Background()
	cfg := engineConfigs()["count"]
	cc := startChaosCluster(t, cfg, 2, 1, faultnet.Weights{None: 1})

	ups := []client.Update{
		client.NewUpdate("R", 1, 1, 2),
		client.NewUpdate("R", 1, 2, 3),
		client.NewUpdate("S", 1, 1, 4, 5),
		client.NewUpdate("S", 1, 2, 4, 6),
	}
	// Expected dedup count on replay: anchor R updates land on exactly
	// one shard each, S updates broadcast to both.
	expectDeduped := 0
	for _, u := range ups {
		if u.Rel == "R" {
			expectDeduped++
		} else {
			expectDeduped += len(cc.workers)
		}
	}

	id := cc.cli.NextBatchID()
	ack1, err := cc.cli.UpdateWithID(ctx, id, ups, true)
	if err != nil {
		t.Fatal(err)
	}
	if ack1.Accepted != len(ups) || !ack1.Applied || ack1.Deduped != 0 {
		t.Fatalf("first delivery ack = %+v, want accepted=%d applied deduped=0", ack1, len(ups))
	}

	applied := make([]uint64, len(cc.workers))
	for i, ws := range cc.workers {
		st, err := client.New(ws.URL()).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		applied[i] = st.Applied
	}
	m1, err := cc.rt.MergedModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := resultJSONBytes(t, m1)

	ack2, err := cc.cli.UpdateWithID(ctx, id, ups, true)
	if err != nil {
		t.Fatalf("replayed delivery: %v", err)
	}
	if ack2.Accepted != len(ups) || !ack2.Applied {
		t.Fatalf("replayed ack = %+v, want the original accepted=%d applied=true", ack2, len(ups))
	}
	if ack2.Deduped != expectDeduped {
		t.Errorf("replayed ack deduped = %d, want %d (every routed update suppressed)", ack2.Deduped, expectDeduped)
	}

	for i, ws := range cc.workers {
		st, err := client.New(ws.URL()).Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Applied != applied[i] {
			t.Errorf("worker %d applied counter moved on replay: %d -> %d", i, applied[i], st.Applied)
		}
	}
	m2, err := cc.rt.MergedModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after := resultJSONBytes(t, m2); string(after) != string(before) {
		t.Errorf("merged model changed on replay\n got: %s\nwant: %s", after, before)
	}
}
