package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"testing"

	"repro/fivm/client"
)

// TestReadSurfaceWorkerMatchesRouter runs one update stream into a
// worker and into a one-shard router and reads both through the one
// read surface they share: the /v1/model bodies must be equal once the
// worker's "version" and the router's "cluster" envelope are removed,
// and /v1/predict with the reserved ?stale=1 must answer alike. The
// analysis engine's ridge refit warm-starts from each side's previous
// model, so its weights agree to a relative 1e-6, not bit for bit.
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

			wm := readBody(t, worker+"/v1/model", http.StatusOK, "version")
			rm := readBody(t, router+"/v1/model", http.StatusOK, "cluster")
			if kind == "analysis" {
				sameRidge(t, wm, rm)
			} else if w, r := marshal(t, wm), marshal(t, rm); !bytes.Equal(w, r) {
				t.Errorf("model bodies differ\nworker: %s\nrouter: %s", w, r)
			}

			const predict = "/v1/predict?C=1&D=5&stale=1"
			if kind != "analysis" {
				// Only the analysis engine predicts; the others refuse
				// alike on both surfaces.
				w := marshal(t, readBody(t, worker+predict, http.StatusUnprocessableEntity, ""))
				r := marshal(t, readBody(t, router+predict, http.StatusUnprocessableEntity, ""))
				if !bytes.Equal(w, r) {
					t.Errorf("predict refusals differ\nworker: %s\nrouter: %s", w, r)
				}
				return
			}
			wp := readBody(t, worker+predict, http.StatusOK, "version")
			rp := readBody(t, router+predict, http.StatusOK, "cluster")
			if !sameKeys(wp, rp) || wp["count"] != rp["count"] {
				t.Errorf("predict bodies differ\nworker: %v\nrouter: %v", wp, rp)
			}
			if w, r := number(t, wp["prediction"]), number(t, rp["prediction"]); !close6(w, r) {
				t.Errorf("prediction: worker %v, router %v", w, r)
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

func sameKeys(a, b map[string]any) bool {
	ka, kb := make([]string, 0, len(a)), make([]string, 0, len(b))
	for k := range a {
		ka = append(ka, k)
	}
	for k := range b {
		kb = append(kb, k)
	}
	slices.Sort(ka)
	slices.Sort(kb)
	return slices.Equal(ka, kb)
}

// close6 reports whether a and b agree to a relative 1e-6.
func close6(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}

// sameRidge compares two ridge model bodies: the same keys, label,
// count and weight columns, the weights and intercept to a relative 1e-6.
func sameRidge(t *testing.T, w, r map[string]any) {
	t.Helper()
	if !sameKeys(w, r) || w["label"] != r["label"] || w["count"] != r["count"] {
		t.Fatalf("ridge bodies differ\nworker: %v\nrouter: %v", w, r)
	}
	if a, b := number(t, w["intercept"]), number(t, r["intercept"]); !close6(a, b) {
		t.Errorf("intercept: worker %v, router %v", a, b)
	}
	ww, rw := w["weights"].([]any), r["weights"].([]any)
	if len(ww) == 0 || len(ww) != len(rw) {
		t.Fatalf("weights: worker %v, router %v", ww, rw)
	}
	for i := range ww {
		a, b := ww[i].(map[string]any), rw[i].(map[string]any)
		if a["column"] != b["column"] {
			t.Errorf("weight %d: column %v (worker) vs %v (router)", i, a["column"], b["column"])
		}
		if x, y := number(t, a["weight"]), number(t, b["weight"]); !close6(x, y) {
			t.Errorf("weight %v: worker %v, router %v", a["column"], x, y)
		}
	}
}
