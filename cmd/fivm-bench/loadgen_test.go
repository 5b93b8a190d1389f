package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/fivm"
	"repro/internal/serve"
)

// TestLoadgenAgainstLiveServer boots a real serving pipeline behind
// httptest and drives a short mixed workload through the public HTTP
// surface — the same path the CI smoke exercises with separate
// processes.
func TestLoadgenAgainstLiveServer(t *testing.T) {
	eng, err := fivm.Open(fivm.Config{
		Relations: []fivm.RelationSpec{
			{Name: "R", Attrs: []string{"A", "B"}},
			{Name: "S", Attrs: []string{"B", "C"}},
		},
		Attrs: []string{"A", "C"},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(eng, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(serve.NewHandler(srv))
	t.Cleanup(ts.Close)

	rep, err := RunLoadgen(LoadgenConfig{
		URL:         ts.URL,
		Duration:    300 * time.Millisecond,
		Concurrency: 4,
		WriteRatio:  0.5,
		BatchSize:   4,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Writes == 0 || rep.Reads == 0 {
		t.Fatalf("no traffic generated: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Errorf("client errors = %d, want 0", rep.Errors)
	}
	if rep.StatusCounts["202"] == 0 {
		t.Errorf("no accepted writes: %v", rep.StatusCounts)
	}
	if !rep.MetricsValid {
		t.Errorf("final /metrics scrape invalid: %s", rep.MetricsError)
	}
	if rep.MetricsSeries == 0 {
		t.Error("metrics_series = 0")
	}
	if rep.ServerShed != 0 {
		t.Errorf("server shed %d updates under light load", rep.ServerShed)
	}
	if rep.ServerIngested == 0 || rep.ServerIngested != rep.UpdatesSent {
		t.Errorf("server ingested %d, client sent %d", rep.ServerIngested, rep.UpdatesSent)
	}
	for _, l := range []LatencySummary{rep.WriteLatency, rep.ReadLatency} {
		if l.Count == 0 || l.P50NS <= 0 {
			t.Errorf("latency summary not populated: %+v", l)
		}
		if !(l.P50NS <= l.P99NS && l.P99NS <= l.P999NS && l.P999NS <= l.MaxNS) {
			t.Errorf("quantiles not monotone: %+v", l)
		}
	}
}

func TestLoadgenConfigValidation(t *testing.T) {
	if _, err := RunLoadgen(LoadgenConfig{}); err == nil {
		t.Error("RunLoadgen accepted an empty URL")
	}
	if _, err := RunLoadgen(LoadgenConfig{URL: "http://x", WriteRatio: 1.5}); err == nil {
		t.Error("RunLoadgen accepted write ratio 1.5")
	}
}

func TestSummarizeQuantiles(t *testing.T) {
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(i + 1) // 1..1000
	}
	s := summarize(ns)
	if s.Count != 1000 || s.MaxNS != 1000 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50NS < 495 || s.P50NS > 505 {
		t.Errorf("p50 = %d, want ~500", s.P50NS)
	}
	if s.P99NS < 985 || s.P99NS > 995 {
		t.Errorf("p99 = %d, want ~990", s.P99NS)
	}
	if s.P999NS < 995 || s.P999NS > 1000 {
		t.Errorf("p999 = %d, want ~999", s.P999NS)
	}
	if empty := summarize(nil); empty.Count != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}
