package cluster_test

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/fivm"
	"repro/fivm/client"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/value"
	"repro/internal/view"
)

// testRels is the shared schema: R(A,B) ⋈ S(A,C,D) on A. R is the
// default anchor (first declared), so R updates partition across shards
// and S updates broadcast.
func testRels() []fivm.RelationSpec {
	return []fivm.RelationSpec{
		{Name: "R", Attrs: []string{"A", "B"}},
		{Name: "S", Attrs: []string{"A", "C", "D"}},
	}
}

// engineConfigs covers all five engine kinds over the shared schema,
// the covar kind twice: its attributes in the order its ranged payloads
// are laid out in (the tree's post-order), and reversed, so the merged
// model's permutation back to the caller's order is exercised too.
func engineConfigs() map[string]fivm.Config {
	return map[string]fivm.Config{
		"count":       {Relations: testRels(), Query: "SELECT B, SUM(1) FROM R NATURAL JOIN S GROUP BY B"},
		"float":       {Relations: testRels(), Query: "SELECT SUM(B * D) FROM R NATURAL JOIN S"},
		"covar":       {Relations: testRels(), Attrs: []string{"B", "D"}},
		"rangedcovar": {Relations: testRels(), Attrs: []string{"D", "B"}},
		"join":        {Relations: testRels()},
		"analysis": {Relations: testRels(), Label: "B",
			Features: []fivm.FeatureSpec{{Attr: "B"}, {Attr: "C", Categorical: true}, {Attr: "D"}}},
	}
}

// startWorker boots one in-process fivm-serve worker over cfg.
func startWorker(t *testing.T, cfg fivm.Config) *httptest.Server {
	t.Helper()
	eng, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(eng, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(serve.NewHandler(srv))
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs
}

// startCluster boots n workers plus a router over them and returns the
// router and a client speaking to the router's HTTP surface.
func startCluster(t *testing.T, cfg fivm.Config, n int) (*cluster.Router, *client.Client) {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		urls[i] = startWorker(t, cfg).URL
	}
	rt, err := cluster.New(cluster.Config{
		ShardURLs:     urls,
		Engine:        cfg,
		ProbeInterval: -1, // no background prober in tests
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		hs.Close()
		rt.Close()
	})
	return rt, client.New(hs.URL, client.WithRetries(0))
}

// twin is one update in both wire forms: the typed client update the
// router receives and the in-process view update the reference engine
// applies. Both carry the same value.Int data.
type twin struct {
	wire client.Update
	ref  view.Update
}

func newTwin(rel string, mult int, vals ...int) twin {
	tuple := make([]any, len(vals))
	avals := make([]any, len(vals))
	for i, v := range vals {
		tuple[i] = v
		avals[i] = v
	}
	return twin{
		wire: client.NewUpdate(rel, mult, tuple...),
		ref:  view.Update{Rel: rel, Tuple: value.T(avals...), Mult: mult},
	}
}

// stream generates a deterministic batched update mix: inserts into R
// and S over a small overlapping value domain, with ~20% deletes of
// previously inserted tuples (each at most once).
func stream(seed int64, n, batch int) [][]twin {
	rng := rand.New(rand.NewSource(seed))
	var live []twin
	var all []twin
	for i := 0; i < n; i++ {
		if len(live) > 10 && rng.Intn(5) == 0 {
			j := rng.Intn(len(live))
			ins := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			del := newTwin(ins.ref.Rel, -1)
			del.wire.Tuple = ins.wire.Tuple
			del.ref.Tuple = ins.ref.Tuple
			all = append(all, del)
			continue
		}
		var tw twin
		if rng.Intn(2) == 0 {
			tw = newTwin("R", 1, rng.Intn(6), rng.Intn(8))
		} else {
			tw = newTwin("S", 1, rng.Intn(6), rng.Intn(8), rng.Intn(8))
		}
		live = append(live, tw)
		all = append(all, tw)
	}
	var out [][]twin
	for len(all) > 0 {
		k := batch
		if k > len(all) {
			k = len(all)
		}
		out = append(out, all[:k])
		all = all[k:]
	}
	return out
}

func resultJSONBytes(t *testing.T, m fivm.Model) []byte {
	t.Helper()
	body, err := m.ResultJSON()
	if err != nil {
		t.Fatalf("ResultJSON: %v", err)
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterEquivalence drives the same update stream through 1-, 2-,
// and 4-shard clusters and through a single in-process engine, for every
// configuration of engineConfigs, and requires the ring-merged cluster model to be
// bit-identical (as rendered JSON) to the single engine's. This is the
// paper's distributivity argument made executable: partials over
// disjoint anchor partitions sum to the monolithic result exactly.
func TestClusterEquivalence(t *testing.T) {
	ctx := context.Background()
	batches := stream(42, 300, 25)
	for kind, cfg := range engineConfigs() {
		cfg := cfg
		t.Run(kind, func(t *testing.T) {
			ref, err := fivm.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				ups := make([]view.Update, len(b))
				for i, tw := range b {
					ups[i] = tw.ref
				}
				if err := ref.Apply(ups); err != nil {
					t.Fatal(err)
				}
			}
			want := resultJSONBytes(t, ref.PublishModel(nil))

			for _, shards := range []int{1, 2, 4} {
				rt, cli := startCluster(t, cfg, shards)
				for _, b := range batches {
					wire := make([]client.Update, len(b))
					for i, tw := range b {
						wire[i] = tw.wire
					}
					if _, err := cli.Update(ctx, wire, true); err != nil {
						t.Fatalf("shards=%d: update: %v", shards, err)
					}
				}
				m, err := rt.MergedModel(ctx)
				if err != nil {
					t.Fatalf("shards=%d: merged model: %v", shards, err)
				}
				if got := resultJSONBytes(t, m); string(got) != string(want) {
					t.Errorf("shards=%d: merged model diverges from single engine\n got: %s\nwant: %s", shards, got, want)
				}
			}
		})
	}
}

// TestClusterReadThroughHTTP reads the merged model over the router's
// own HTTP surface and checks the cluster envelope reports full
// coverage.
func TestClusterReadThroughHTTP(t *testing.T) {
	ctx := context.Background()
	cfg := engineConfigs()["count"]
	_, cli := startCluster(t, cfg, 2)
	ups := []client.Update{
		client.NewUpdate("R", 1, 1, 2),
		client.NewUpdate("R", 1, 2, 3),
		client.NewUpdate("S", 1, 1, 4, 5),
		client.NewUpdate("S", 1, 2, 4, 6),
	}
	if _, err := cli.Update(ctx, ups, true); err != nil {
		t.Fatal(err)
	}
	m, err := cli.Model(ctx)
	if err != nil {
		t.Fatal(err)
	}
	env, ok := m.Body["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("model body has no cluster envelope: %v", m.Body)
	}
	if env["stale"] != false || env["merged"] != float64(2) || env["shards"] != float64(2) {
		t.Errorf("cluster envelope = %v, want merged=2 shards=2 stale=false", env)
	}
	if m.Body["total"] != float64(2) {
		t.Errorf("total = %v, want 2 (two R tuples joined)", m.Body["total"])
	}
	st, err := cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Errorf("stats shards = %v, want the 2 relations for loadgen discovery", st.Shards)
	}
}

// TestShardMapOwners pins the shard hash across commits: a shard's WAL
// holds exactly the anchor tuples that hashed to it, so a changed hash
// would silently break "shard i holds the tuples hashing to i" on every
// recovered cluster. The table was recorded before the hash moved into
// this package and must never change. Beyond it, every owner must be
// stable and within range, a few hundred tuples must touch every shard
// (FNV-1a spreads small int domains), and tuples agreeing on the
// engine's join key must co-locate.
func TestShardMapOwners(t *testing.T) {
	for _, c := range []struct {
		tup      value.Tuple
		key      []int
		of2, of4 int
	}{
		{value.T(0, 1), []int{0}, 0, 0},
		{value.T(1, 1), []int{0}, 1, 3},
		{value.T(2, 1), []int{0}, 0, 2},
		{value.T(7, 1), []int{0}, 1, 1},
		{value.T(42, 1), []int{0}, 0, 2},
		{value.T(1000003, 1), []int{0}, 0, 2},
		{value.T(-1, 1), []int{0}, 0, 0},
		{value.T(-42, 1), []int{0}, 1, 3},
		{value.T(int64(math.MinInt64), 1), []int{0}, 0, 0},
		{value.T(int64(math.MaxInt64), 1), []int{0}, 0, 0},
		{value.T(0.5, 1), []int{0}, 0, 2},
		{value.T(-2.25, 1), []int{0}, 1, 3},
		{value.T(3.0, 1), []int{0}, 1, 1},
		{value.T(1e-9, 1), []int{0}, 0, 0},
		{value.T("", 1), []int{0}, 0, 2},
		{value.T("a", 1), []int{0}, 0, 0},
		{value.T("store-17", 1), []int{0}, 0, 2},
		{value.T("zürich", 1), []int{0}, 0, 2},
		{value.T(5, 9), []int{1}, 1, 3},
		{value.T(3, 4, 99), []int{0, 1}, 0, 0},
		{value.T(4, 3, 99), []int{0, 1}, 0, 2},
		{value.T("x", -7, 0.5), []int{0, 1}, 0, 0},
		{value.T("x", -7, 0.5), []int{1, 0}, 0, 2},
		{value.T(3, 4), []int{}, 0, 0},
		{value.T("x", 2.5, -1), nil, 0, 2},
	} {
		got2 := cluster.NewShardMap(2, "R", c.key).Owner(c.tup)
		got4 := cluster.NewShardMap(4, "R", c.key).Owner(c.tup)
		if got2 != c.of2 || got4 != c.of4 {
			t.Errorf("%v on key %v: owners %d of 2, %d of 4; recorded %d, %d", c.tup, c.key, got2, got4, c.of2, c.of4)
		}
	}

	eng, err := fivm.Open(engineConfigs()["count"])
	if err != nil {
		t.Fatal(err)
	}
	keyIdx, ok := eng.PartitionKey("R")
	if !ok {
		t.Fatal("no partition key for R")
	}
	m := cluster.NewShardMap(4, "R", keyIdx)
	seen := make(map[int]int)
	for a := 0; a < 100; a++ {
		for b := 0; b < 3; b++ {
			tup := value.T(a, b)
			o := m.Owner(tup)
			if o < 0 || o >= 4 {
				t.Fatalf("owner %d out of range", o)
			}
			if o2 := m.Owner(tup); o2 != o {
				t.Fatalf("owner not stable: %d then %d", o, o2)
			}
			seen[o]++
		}
	}
	if len(seen) != 4 {
		t.Errorf("300 tuples landed on %d of 4 shards: %v", len(seen), seen)
	}
	// The join key of R in R ⋈ S is A: tuples differing only in B must
	// co-locate (the engine joins on A, so a shard owns a full A-group).
	for a := 0; a < 20; a++ {
		if m.Owner(value.T(a, 0)) != m.Owner(value.T(a, 99)) {
			t.Fatalf("tuples with equal join key A=%d landed on different shards", a)
		}
	}
}
