package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/view"
)

// TestReadSurfaceWorkerMatchesRouter runs one update stream into a
// worker and into a one-shard router and reads both through the one
// read surface they share: the /v1/model bodies must be equal once the
// worker's "version" and the router's "cluster" envelope are removed,
// and /v1/predict with the reserved ?stale=1 must answer alike. An
// analysis model's ridge fit depends on its payload alone, so its
// weights agree bit for bit too.
func TestReadSurfaceWorkerMatchesRouter(t *testing.T) {
	ctx := context.Background()
	batches := stream(11, 200, 20)
	for _, kind := range []string{"count", "covar", "analysis"} {
		cfg := engineConfigs()[kind]
		t.Run(kind, func(t *testing.T) {
			worker := startWorker(t, cfg).URL
			_, rcli := startCluster(t, cfg, 1)
			router := rcli.Base()
			wcli := client.New(worker, client.WithRetries(0))
			for _, b := range batches {
				wire := make([]client.Update, len(b))
				for i, tw := range b {
					wire[i] = tw.wire
				}
				for _, cli := range []*client.Client{wcli, rcli} {
					if _, err := cli.Update(ctx, wire, true); err != nil {
						t.Fatal(err)
					}
				}
			}

			same := func(path string, status int, wdrop, rdrop string) {
				t.Helper()
				w := marshal(t, readBody(t, worker+path, status, wdrop))
				r := marshal(t, readBody(t, router+path, status, rdrop))
				if !bytes.Equal(w, r) {
					t.Errorf("%s bodies differ\nworker: %s\nrouter: %s", path, w, r)
				}
			}
			same("/v1/model", http.StatusOK, "version", "cluster")
			const predict = "/v1/predict?C=1&D=5&stale=1"
			if kind == "analysis" {
				same(predict, http.StatusOK, "version", "cluster")
			} else {
				// Only the analysis engine predicts; the others refuse
				// alike on both surfaces.
				same(predict, http.StatusUnprocessableEntity, "", "")
			}
		})
	}
}

// readBody GETs url, requires status and returns the JSON body, numbers
// kept as their text, without the envelope key drop (which a 2xx body
// must carry).
func readBody(t *testing.T, url string, status int, drop string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status {
		t.Fatalf("GET %s = %d %s, want %d", url, resp.StatusCode, raw, status)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var body map[string]any
	if err := dec.Decode(&body); err != nil {
		t.Fatal(err)
	}
	if drop != "" {
		if _, ok := body[drop]; !ok {
			t.Fatalf("GET %s: body has no %q: %s", url, drop, raw)
		}
		delete(body, drop)
	}
	return body
}

func marshal(t *testing.T, body map[string]any) []byte {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func number(t *testing.T, v any) float64 {
	t.Helper()
	n, ok := v.(json.Number)
	if !ok {
		t.Fatalf("%v is not a number", v)
	}
	f, err := n.Float64()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRepeatReadsAnswerTheSameBody: reads over unchanged partials
// answer the same body byte for byte while the merge and partial
// metrics still count every read; a write in between is merged into the
// next read.
func TestRepeatReadsAnswerTheSameBody(t *testing.T) {
	ctx := context.Background()
	cfg := engineConfigs()["analysis"]
	_, rcli := startCluster(t, cfg, 2)
	router := rcli.Base()
	ref, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	write := func(b []twin) {
		t.Helper()
		wire, ups := make([]client.Update, len(b)), make([]view.Update, len(b))
		for i, tw := range b {
			wire[i], ups[i] = tw.wire, tw.ref
		}
		if _, err := rcli.Update(ctx, wire, true); err != nil {
			t.Fatal(err)
		}
		if err := ref.Apply(ups); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range stream(3, 60, 20) {
		write(b)
	}

	merges := metricSum(t, router, "fivm_cluster_merge_seconds_count")
	partials := metricSum(t, router, "fivm_cluster_partials_total")
	first := readRaw(t, router+"/v1/model")
	for i := 2; i <= 3; i++ {
		if again := readRaw(t, router+"/v1/model"); !bytes.Equal(again, first) {
			t.Fatalf("read %d differs from the first\nfirst: %s\nread %d: %s", i, first, i, again)
		}
	}
	if got := metricSum(t, router, "fivm_cluster_merge_seconds_count") - merges; got != 3 {
		t.Errorf("merge histogram counted %v reads, want 3", got)
	}
	if got := metricSum(t, router, "fivm_cluster_partials_total") - partials; got != 6 {
		t.Errorf("partials counter grew by %v, want 6 (2 shards, 3 reads)", got)
	}

	before := ref.PublishModel(nil).Count()
	write([]twin{newTwin("R", 1, 1, 2)})
	want := ref.PublishModel(nil).Count()
	if want == before {
		t.Fatalf("the extra write left the join count at %v", want)
	}
	if got := number(t, readBody(t, router+"/v1/model", http.StatusOK, "cluster")["count"]); got != want {
		t.Errorf("count after one more write = %v, want %v", got, want)
	}
}

// readRaw GETs url, requires 200 and returns the body as sent.
func readRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d %s", url, resp.StatusCode, raw)
	}
	return raw
}
