package fivm_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/fivm"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/view"
)

// engineState renders every view, source, and the result of an engine's
// tree deterministically: sorted tuples, canonical payload rendering.
// Two engines with bit-identical maintained state render identically.
func engineState[V any](e *fivm.Engine[V]) string {
	var b strings.Builder
	var walk func(n *view.Node[V])
	walk = func(n *view.Node[V]) {
		fmt.Fprintf(&b, "view %s = %s\n", n.Var(), n.View())
		for _, c := range n.Children() {
			walk(c)
		}
	}
	tr := e.Tree()
	for _, r := range tr.Roots() {
		walk(r)
	}
	for _, name := range tr.RelationNames() {
		src, _ := tr.Source(name)
		fmt.Fprintf(&b, "source %s = %s\n", name, src)
	}
	fmt.Fprintf(&b, "result = %s\n", e.Result())
	return b.String()
}

// snapshotState dispatches engineState over the five concrete kinds.
func snapshotState(t *testing.T, e fivm.AnyEngine) string {
	t.Helper()
	switch x := e.(type) {
	case *fivm.Analysis:
		return engineState(x.Engine)
	case *fivm.CountEngine:
		return engineState(x.Engine)
	case *fivm.FloatEngine:
		return engineState(x.Engine)
	case *fivm.CovarEngine:
		return engineState(x.Engine)
	case *fivm.JoinEngine:
		return engineState(x.Engine)
	default:
		t.Fatalf("unknown engine type %T", e)
		return ""
	}
}

// indexStates verifies every secondary index of the engine's tree
// against its primary map and returns the built indexes' deterministic
// postings dumps, keyed by map (deterministic walk order) and
// projection. Laziness makes the built SET probe-dependent, so callers
// compare dumps per projection present on both sides; VerifyIndexes
// ties every built index — compared or not — to primary contents that
// engineState already asserts bit-identical.
func indexStates[V any](t *testing.T, e *fivm.Engine[V]) map[string]map[string]string {
	t.Helper()
	out := map[string]map[string]string{}
	check := func(name string, m *relation.Map[V]) {
		if err := m.VerifyIndexes(); err != nil {
			t.Fatalf("%s: inconsistent index: %v", name, err)
		}
		if d := m.IndexDumps(); len(d) > 0 {
			out[name] = d
		}
	}
	var walk func(prefix string, n *view.Node[V])
	walk = func(prefix string, n *view.Node[V]) {
		check(prefix+"/view "+n.Var(), n.View())
		for i, c := range n.Children() {
			walk(fmt.Sprintf("%s/%d", prefix, i), c)
		}
	}
	tr := e.Tree()
	for i, r := range tr.Roots() {
		walk(fmt.Sprintf("root%d", i), r)
	}
	for _, name := range tr.RelationNames() {
		src, _ := tr.Source(name)
		check("source "+name, src)
	}
	check("result", tr.Result())
	return out
}

// snapshotIndexes dispatches indexStates over the five concrete kinds.
func snapshotIndexes(t *testing.T, e fivm.AnyEngine) map[string]map[string]string {
	t.Helper()
	switch x := e.(type) {
	case *fivm.Analysis:
		return indexStates(t, x.Engine)
	case *fivm.CountEngine:
		return indexStates(t, x.Engine)
	case *fivm.FloatEngine:
		return indexStates(t, x.Engine)
	case *fivm.CovarEngine:
		return indexStates(t, x.Engine)
	case *fivm.JoinEngine:
		return indexStates(t, x.Engine)
	default:
		t.Fatalf("unknown engine type %T", e)
		return nil
	}
}

// compareIndexes asserts bit-identical postings for every index built
// on BOTH engines (same map, same projection) and returns how many
// index pairs it compared, so callers can reject a vacuous run.
func compareIndexes(t *testing.T, base, other map[string]map[string]string, ctx string) int {
	t.Helper()
	n := 0
	for name, bd := range base {
		od, ok := other[name]
		if !ok {
			continue
		}
		for proj, dump := range bd {
			odump, ok := od[proj]
			if !ok {
				continue
			}
			n++
			if dump != odump {
				t.Fatalf("%s: index postings diverged on %s proj %s:\n%s\nvs\n%s", ctx, name, proj, dump, odump)
			}
		}
	}
	return n
}

// forceParallel drops the view layer's batch-size threshold to 1 so the
// test's modest batches exercise the parallel path.
func forceParallel(t *testing.T, e fivm.AnyEngine, workers int) {
	t.Helper()
	switch x := e.(type) {
	case *fivm.Analysis:
		x.Tree().SetParallelism(workers, 1)
	case *fivm.CountEngine:
		x.Tree().SetParallelism(workers, 1)
	case *fivm.FloatEngine:
		x.Tree().SetParallelism(workers, 1)
	case *fivm.CovarEngine:
		x.Tree().SetParallelism(workers, 1)
	case *fivm.JoinEngine:
		x.Tree().SetParallelism(workers, 1)
	default:
		t.Fatalf("unknown engine type %T", e)
	}
}

func equivRelations() []fivm.RelationSpec {
	return []fivm.RelationSpec{
		{Name: "R", Attrs: []string{"A", "B"}},
		{Name: "S", Attrs: []string{"B", "C"}},
		{Name: "T", Attrs: []string{"C", "D"}},
	}
}

// equivStreamDomain builds a mixed insert/delete stream over the
// relations with integer values in [0, domain) (so every float sum is
// exact and "identical" means bit-identical). Deletes target live
// tuples, so payloads cancel to zero mid-stream. The domain bounds the
// distinct-tuple space: tests that must push coalesced per-relation
// deltas past DefaultParallelThreshold need a domain whose tuple space
// clears it (domain² distinct tuples per relation).
func equivStreamDomain(rnd *rand.Rand, n, domain int) []view.Update {
	rels := equivRelations()
	live := map[string][]value.Tuple{}
	var ups []view.Update
	for len(ups) < n {
		r := rels[rnd.Intn(len(rels))]
		if l := live[r.Name]; len(l) > 0 && rnd.Float64() < 0.35 {
			i := rnd.Intn(len(l))
			ups = append(ups, view.Update{Rel: r.Name, Tuple: l[i], Mult: -1})
			live[r.Name] = append(l[:i], l[i+1:]...)
			continue
		}
		tp := make(value.Tuple, len(r.Attrs))
		for i := range tp {
			tp[i] = value.Int(int64(rnd.Intn(domain)))
		}
		ups = append(ups, view.Update{Rel: r.Name, Tuple: tp, Mult: 1})
		live[r.Name] = append(live[r.Name], tp)
	}
	return ups
}

// equivStream is equivStreamDomain over the dense 5-value domain most
// equivalence tests use.
func equivStream(rnd *rand.Rand, n int) []view.Update {
	return equivStreamDomain(rnd, n, 5)
}

// setWorkers configures worker count with the DEFAULT batch-size
// threshold (view.DefaultParallelThreshold), unlike forceParallel,
// so small batches stay sequential and only large ones fan out.
func setWorkers(t *testing.T, e fivm.AnyEngine, workers int) {
	t.Helper()
	s, ok := e.(interface{ SetParallelism(int) })
	if !ok {
		t.Fatalf("engine %T does not expose SetParallelism", e)
	}
	s.SetParallelism(workers)
}

// equivConfigs is one workload per engine kind over equivRelations,
// named by the kind Open infers, plus "rangedcovar": the covar kind
// again, over covar's attributes in the order its ranged payloads are
// laid out in (the tree's post-order, which the former rangedcovar kind
// published), while covar's own order needs the permutation back.
func equivConfigs() map[string]fivm.Config {
	return map[string]fivm.Config{
		"count": {
			Relations: equivRelations(),
			Query:     "SELECT B, SUM(1) FROM R NATURAL JOIN S NATURAL JOIN T GROUP BY B",
		},
		"float": {
			Relations: equivRelations(),
			Query:     "SELECT SUM(A * D) FROM R NATURAL JOIN S NATURAL JOIN T",
		},
		"covar": {
			Relations: equivRelations(),
			Attrs:     []string{"A", "B", "D"},
		},
		"rangedcovar": {
			Relations: equivRelations(),
			Kind:      fivm.KindCovar,
			Attrs:     []string{"A", "D", "B"},
		},
		"analysis": {
			Relations: equivRelations(),
			Features: []fivm.FeatureSpec{
				{Attr: "A"},
				{Attr: "B", Categorical: true},
				{Attr: "D"},
			},
			// A label makes every published model a warm-started ridge
			// fit: iterative float math, deterministic given identical
			// payloads and an identical previous model.
			Label: "D",
		},
		"join": {
			Relations: equivRelations(),
		},
	}
}

// TestParallelEquivalenceAllKinds is the correctness anchor of the
// commit path, parallel and in place: for every engine kind, engines at
// worker counts {0 (untouched default), 1, 2, 4, 8} AND a reference
// engine whose tree commits with the pure ring Add (no Scratch, no FMA:
// the ownership rule cannot matter there) are driven through the same
// randomized mixed insert/delete stream and must hold bit-identical
// views, sources, results, index postings and published models after
// every batch — then through a drain of every live tuple down to the
// empty database and a reload. Batch sizes straddle
// view.DefaultParallelThreshold (128), so each configured engine keeps
// crossing between the sequential and parallel commit paths mid-stream.
func TestParallelEquivalenceAllKinds(t *testing.T) {
	// Workers 0 = engine exactly as Open returned it (the baseline the
	// others must match); the rest route large batches through 1, 2, 4,
	// or 8 commit workers at the default threshold; -1 marks the
	// pure-Add reference.
	workerCounts := []int{0, 1, 2, 4, 8, -1}
	// The cycle mixes batches well below and well above the 128-tuple
	// threshold: a 1200-update batch leaves ~400 coalesced tuples per
	// relation (domain 30 → 900-tuple space per relation clears it),
	// while 90- and 64-update batches stay sequential on every engine.
	batchSizes := []int{90, 1200, 130, 64, 700, 96, 400}
	for name, cfg := range equivConfigs() {
		t.Run(name, func(t *testing.T) {
			kind := cfg.Kind
			if kind == "" {
				kind = fivm.Kind(name)
			}
			engines := make([]fivm.AnyEngine, len(workerCounts))
			for i, w := range workerCounts {
				e, err := fivm.Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := e.Kind(); got != kind {
					t.Fatalf("Open built a %s engine, want %s", got, kind)
				}
				if w > 0 {
					setWorkers(t, e, w)
				} else if w < 0 {
					if err := fivm.CommitWithPureAdd(e); err != nil {
						t.Fatal(err)
					}
				}
				engines[i] = e
			}

			rnd := rand.New(rand.NewSource(99))
			init := map[string][]value.Tuple{}
			live := map[string]map[string]int{} // relation -> encoded tuple -> multiplicity
			count := func(rel string, tp value.Tuple, mult int) {
				if live[rel] == nil {
					live[rel] = map[string]int{}
				}
				live[rel][tp.Encode()] += mult
			}
			for _, r := range equivRelations() {
				for i := 0; i < 60; i++ {
					tp := make(value.Tuple, len(r.Attrs))
					for j := range tp {
						tp[j] = value.Int(int64(rnd.Intn(30)))
					}
					init[r.Name] = append(init[r.Name], tp)
					count(r.Name, tp, 1)
				}
			}
			for _, e := range engines {
				if err := e.Init(init); err != nil {
					t.Fatal(err)
				}
			}

			comparedIndexes := 0
			models := make([]fivm.Model, len(engines))
			// step applies one batch everywhere and compares everything
			// against engines[0], models included (each engine's publish
			// warm-starts from its own previous model).
			step := func(ctx string, batch []view.Update) {
				t.Helper()
				var base, baseModel string
				var baseIx map[string]map[string]string
				for i, e := range engines {
					if err := e.Apply(batch); err != nil {
						t.Fatal(err)
					}
					models[i] = e.PublishModel(models[i])
					model := modelJSON(models[i])
					state, ix := snapshotState(t, e), snapshotIndexes(t, e)
					if i == 0 {
						base, baseIx, baseModel = state, ix, model
						continue
					}
					who := fmt.Sprintf("%s, workers %d", ctx, workerCounts[i])
					if state != base {
						t.Fatalf("state diverged (%s):\nbaseline:\n%s\nvs:\n%s", who, base, state)
					}
					if model != baseModel {
						t.Fatalf("published models diverged (%s):\n%s\nvs\n%s", who, baseModel, model)
					}
					comparedIndexes += compareIndexes(t, baseIx, ix, who)
				}
			}

			ups := equivStreamDomain(rnd, 2800, 30)
			start, bi := 0, 0
			for start < len(ups) {
				end := min(start+batchSizes[bi%len(batchSizes)], len(ups))
				bi++
				for _, u := range ups[start:end] {
					count(u.Rel, u.Tuple, u.Mult)
				}
				step(fmt.Sprintf("batch ending at %d", end), ups[start:end])
				start = end
			}
			if comparedIndexes == 0 {
				t.Fatal("no index postings were compared; the equivalence check is vacuous")
			}

			// Annihilation: delete every live tuple, so every view, source
			// and the result drain to empty through whatever mix of owned
			// and shared entries the stream left behind — and back.
			var drain []view.Update
			for _, r := range equivRelations() {
				for enc, mult := range live[r.Name] {
					if mult != 0 {
						drain = append(drain, view.Update{Rel: r.Name, Tuple: value.MustDecodeTuple(enc), Mult: -mult})
					}
				}
			}
			step("drain", drain)
			empty, err := fivm.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := snapshotState(t, engines[0]), snapshotState(t, empty); got != want {
				t.Fatalf("drained engine is not empty:\n%s\nwant\n%s", got, want)
			}
			var reload []view.Update
			for _, r := range equivRelations() {
				for _, tp := range init[r.Name] {
					reload = append(reload, view.Update{Rel: r.Name, Tuple: tp, Mult: 1})
				}
			}
			step("reload", reload)
			step("reload twice", reload)
		})
	}
}

// TestOpenWorkers: Config.Workers wires through Open into the view
// tree; 0 leaves the sequential default.
func TestOpenWorkers(t *testing.T) {
	mk := func(workers int) *fivm.CountEngine {
		eng, err := fivm.Open(fivm.Config{
			Relations: equivRelations(),
			Query:     "SELECT SUM(1) FROM R NATURAL JOIN S NATURAL JOIN T",
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng.(*fivm.CountEngine)
	}
	if w, _ := mk(0).Tree().Parallelism(); w != 1 {
		t.Fatalf("Workers 0: tree has %d workers, want sequential", w)
	}
	if w, _ := mk(4).Tree().Parallelism(); w != 4 {
		t.Fatalf("Workers 4: tree has %d workers", w)
	}
	if w, _ := mk(-1).Tree().Parallelism(); w < 1 {
		t.Fatalf("Workers -1 (GOMAXPROCS): tree has %d workers", w)
	}
	// SetParallelism(1) restores the sequential path on a live engine.
	e := mk(8)
	e.SetParallelism(1)
	if w, _ := e.Tree().Parallelism(); w != 1 {
		t.Fatalf("SetParallelism(1): tree has %d workers", w)
	}
}

// TestParallelEquivalenceCategorical drives the relational-ring payloads
// (categorical one-hot tensors) through the parallel path with a larger
// worker count than GOMAXPROCS, checking the pool degrades gracefully.
func TestParallelEquivalenceCategorical(t *testing.T) {
	cfg := fivm.Config{
		Relations: equivRelations(),
		Features: []fivm.FeatureSpec{
			{Attr: "A", Categorical: true},
			{Attr: "C", Categorical: true},
			{Attr: "D", BinWidth: 2},
		},
	}
	seq, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := fivm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	forceParallel(t, par, 16)
	rnd := rand.New(rand.NewSource(3))
	ups := equivStream(rnd, 400)
	if err := seq.Apply(ups); err != nil {
		t.Fatal(err)
	}
	if err := par.Apply(ups); err != nil {
		t.Fatal(err)
	}
	if s, p := snapshotState(t, seq), snapshotState(t, par); s != p {
		t.Fatalf("categorical state diverged:\n%s\nvs\n%s", s, p)
	}
	// The relational payloads must still compare equal structurally.
	sp := seq.(*fivm.Analysis).Payload()
	pp := par.(*fivm.Analysis).Payload()
	if !sp.Equal(pp) {
		t.Fatal("RelCovar payloads differ structurally")
	}
}

// TestParallelLiftsOfUnseenCategories: propagate workers lifting
// category values nobody has seen before intern them concurrently
// (ring's category dictionary; run under -race). The parallel engine
// must match a sequential one after every batch, and the ids must be
// stable afterwards: a fresh engine fed the same stream later, when
// every value is already known, arrives at an equal payload.
func TestParallelLiftsOfUnseenCategories(t *testing.T) {
	cfg := fivm.Config{
		Relations: equivRelations(),
		Features: []fivm.FeatureSpec{
			{Attr: "A", Categorical: true},
			{Attr: "C", Categorical: true},
			{Attr: "D", Categorical: true},
		},
	}
	open := func(workers int) *fivm.Analysis {
		e, err := fivm.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if workers > 0 {
			forceParallel(t, e, workers)
		}
		return e.(*fivm.Analysis)
	}
	seq, par := open(0), open(4)
	var batches [][]view.Update
	for b := 0; b < 4; b++ {
		var ups []view.Update
		for i := 0; i < 32; i++ {
			// Join keys (B, C) stay dense so the three relations join;
			// A and D carry a value unique to this test, batch and row.
			fresh := fmt.Sprintf("unseen-%d-%d", b, i)
			ups = append(ups,
				view.Update{Rel: "R", Tuple: value.T(fresh, i%4), Mult: 1},
				view.Update{Rel: "T", Tuple: value.T(i%3, "d-"+fresh), Mult: 1})
			if b == 0 && i < 12 {
				ups = append(ups, view.Update{Rel: "S", Tuple: value.T(i%4, i%3), Mult: 1})
			}
		}
		batches = append(batches, ups)
	}
	for b, ups := range batches {
		for _, e := range []*fivm.Analysis{seq, par} {
			if err := e.Apply(ups); err != nil {
				t.Fatal(err)
			}
		}
		if !seq.Payload().Equal(par.Payload()) {
			t.Fatalf("batch %d: parallel payload differs from sequential", b)
		}
		if s, p := snapshotState(t, seq), snapshotState(t, par); s != p {
			t.Fatalf("batch %d: state diverged:\n%s\nvs\n%s", b, s, p)
		}
	}
	if seq.Payload() == nil {
		t.Fatal("the stream joined nothing")
	}
	late := open(4)
	for _, ups := range batches {
		if err := late.Apply(ups); err != nil {
			t.Fatal(err)
		}
	}
	if !late.Payload().Equal(par.Payload()) {
		t.Fatal("an engine fed the same stream later disagrees: category ids moved")
	}
}
