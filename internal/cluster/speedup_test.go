package cluster_test

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/value"
)

// raceEnabled reports whether the test binary was built with -race,
// whose instrumentation distorts wall-clock speedups.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// ratioGate and speedupSkip are copies of the verdicts in
// fivm/scaling_test.go: num/den must lie in [lo, hi], and a side that
// measured nothing fails; an n-way speedup is not measured below n
// usable CPUs or under the race detector.
func ratioGate(num, den time.Duration, lo, hi float64) (float64, error) {
	if num <= 0 || den <= 0 {
		return 0, fmt.Errorf("nothing measured (%v / %v)", num, den)
	}
	r := float64(num) / float64(den)
	if r < lo || r > hi {
		return r, fmt.Errorf("%v / %v = %.2f×, outside [%.1f×, %.1f×]", num, den, r, lo, hi)
	}
	return r, nil
}

func speedupSkip(cpus, n int, race bool) string {
	if cpus < n {
		return fmt.Sprintf("%d usable CPUs < %d: a %d-way speedup is not measurable here", cpus, n, n)
	}
	if race {
		return "the race detector serializes enough to make speedups meaningless"
	}
	return ""
}

// TestClusterSpeedupGate checks the sharded-scaling verdict on synthetic
// timings, which every host can run: a clearing 4-shard run passes, a
// below-floor or unmeasured one fails, a small host or -race skips.
func TestClusterSpeedupGate(t *testing.T) {
	ms, inf := time.Millisecond, math.Inf(1)
	if _, err := ratioGate(100*ms, 50*ms, 1.5, inf); err != nil {
		t.Errorf("2.0× must pass: %v", err)
	}
	if _, err := ratioGate(100*ms, 83*ms, 1.5, inf); err == nil {
		t.Error("1.2× must fail the 1.5× floor")
	}
	if _, err := ratioGate(100*ms, 0, 1.5, inf); err == nil {
		t.Error("an unmeasured sharded run must fail")
	}
	if speedupSkip(1, 4, false) == "" || speedupSkip(8, 4, true) == "" || speedupSkip(4, 4, false) != "" {
		t.Error("must skip below 4 CPUs and under -race, and run at 4")
	}
}

// wireTuple converts an engine tuple to the client's JSON wire form.
func wireTuple(t value.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		switch v.Kind() {
		case value.KindInt:
			out[i] = v.Int()
		case value.KindFloat:
			out[i] = v.Float()
		case value.KindString:
			out[i] = v.Str()
		}
	}
	return out
}

// TestClusterIngestSpeedup gates sharded ingest: the Retailer covar
// stream's Inventory updates (4 000, 20% deletes, batches of 500 with
// wait=1) through a router in front of 4 in-process workers must run at
// least 1.5× as fast as through the same router in front of 1. Every
// worker holds the broadcast dimension relations and an empty anchor,
// so each update lands on exactly one shard and the two runs pay the
// same HTTP and routing overhead per batch. The floor sits below the
// parallel-commit test's 2× because every batch also pays the router's
// decode/re-encode and one round trip per shard; what it catches is a
// return to sequential fan-out or a shard map collapsing onto one
// shard. It needs 4 CPUs and skips below that, and under -race.
func TestClusterIngestSpeedup(t *testing.T) {
	const (
		shards     = 4
		minSpeedup = 1.5
		batch      = 500
	)
	if skip := speedupSkip(min(runtime.NumCPU(), runtime.GOMAXPROCS(0)), shards, raceEnabled()); skip != "" {
		t.Skip(skip)
	}
	dcfg := dataset.DefaultRetailerConfig()
	dcfg.InventoryRows = 2_000
	db := dataset.Retailer(dcfg)
	var rels []fivm.RelationSpec
	for _, r := range db.Relations {
		rels = append(rels, fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs})
	}
	cfg := fivm.Config{Relations: rels, Attrs: []string{"inventoryunits", "prize", "avghhi", "maxtemp", "medianage"}}
	broadcast := db.TupleMap()
	delete(broadcast, "Inventory")
	st, err := dataset.NewStream(db, dataset.StreamConfig{Relation: "Inventory", Total: 4_000, DeleteRatio: 0.2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	wire := make([]client.Update, len(st.Updates))
	for i, u := range st.Updates {
		wire[i] = client.NewUpdate(u.Rel, u.Mult, wireTuple(u.Tuple)...)
	}

	run := func(n int) time.Duration {
		urls := make([]string, n)
		for s := range urls {
			eng, err := fivm.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Init(broadcast); err != nil {
				t.Fatal(err)
			}
			srv, err := serve.New(eng, serve.Config{})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(serve.NewHandler(srv))
			defer srv.Close()
			defer hs.Close()
			urls[s] = hs.URL
		}
		rt, err := cluster.New(cluster.Config{ShardURLs: urls, Engine: cfg, ShardBy: "Inventory", ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		rhs := httptest.NewServer(rt.Handler())
		defer rhs.Close()
		cli := client.New(rhs.URL, client.WithRetries(0))
		t0 := time.Now()
		for i := 0; i < len(wire); i += batch {
			if _, err := cli.Update(context.Background(), wire[i:min(i+batch, len(wire))], true); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	one, many := time.Hour, time.Hour
	for r := 0; r < 3; r++ {
		one, many = min(one, run(1)), min(many, run(shards))
	}
	speedup, err := ratioGate(one, many, minSpeedup, math.Inf(1))
	t.Logf("%d shards: %.2f× the 1-shard rate (%v -> %v per %d updates, floor %.1f×)",
		shards, speedup, one, many, len(wire), minSpeedup)
	if err != nil {
		t.Errorf("%d-shard speedup: %v: sharded ingest is not scaling", shards, err)
	}
}
