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

// engineState renders every view, stored source, and the result of an engine's
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
		if src, ok := tr.Source(name); ok {
			fmt.Fprintf(&b, "source %s = %s\n", name, src)
		}
	}
	fmt.Fprintf(&b, "result = %s\n", e.Result())
	return b.String()
}

// snapshotState dispatches engineState over the four concrete kinds.
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
		if src, ok := tr.Source(name); ok {
			check("source "+name, src)
		}
	}
	check("result", tr.Result())
	return out
}

// snapshotIndexes dispatches indexStates over the four concrete kinds.
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

func equivRelations() []fivm.RelationSpec {
	return []fivm.RelationSpec{
		{Name: "R", Attrs: []string{"A", "B"}},
		{Name: "S", Attrs: []string{"B", "C"}},
		{Name: "T", Attrs: []string{"C", "D"}},
	}
}

// equivStream builds a mixed insert/delete stream over the relations
// with integer values in [0, domain) (so every float sum is exact and
// "identical" means bit-identical). Deletes target live tuples, so
// payloads cancel to zero mid-stream. The domain bounds the
// distinct-tuple space (domain² distinct tuples per relation).
func equivStream(rnd *rand.Rand, n, domain int) []view.Update {
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
	}
}

// TestCommitEquivalenceAllKinds is the correctness anchor of the
// in-place commit: for every engine kind, the engine exactly as Open
// returns it and a reference engine whose tree commits with the pure
// ring Add (no Scratch: the ownership rule cannot matter there)
// are driven through the same randomized mixed insert/delete stream and
// must hold bit-identical views, sources, results, index postings and
// published models after every batch — then through a drain of every
// live tuple down to the empty database and a reload.
func TestCommitEquivalenceAllKinds(t *testing.T) {
	// The cycle mixes small batches with ones that leave ~400 coalesced
	// tuples per relation (domain 30 → a 900-tuple space per relation).
	batchSizes := []int{90, 1200, 130, 64, 700, 96, 400}
	for name, cfg := range equivConfigs() {
		t.Run(name, func(t *testing.T) {
			kind := cfg.Kind
			if kind == "" {
				kind = fivm.Kind(name)
			}
			engines := make([]fivm.AnyEngine, 2) // the default, then the pure-Add reference
			for i := range engines {
				e, err := fivm.Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := e.Kind(); got != kind {
					t.Fatalf("Open built a %s engine, want %s", got, kind)
				}
				engines[i] = e
			}
			if err := fivm.CommitWithPureAdd(engines[1]); err != nil {
				t.Fatal(err)
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
			// step applies one batch to both engines and compares
			// everything, models included (each engine's publish
			// warm-starts from its own previous model).
			step := func(ctx string, batch []view.Update) {
				t.Helper()
				var states, rendered [2]string
				var ixs [2]map[string]map[string]string
				for i, e := range engines {
					if err := e.Apply(batch); err != nil {
						t.Fatal(err)
					}
					models[i] = e.PublishModel(models[i])
					rendered[i] = modelJSON(models[i])
					states[i], ixs[i] = snapshotState(t, e), snapshotIndexes(t, e)
				}
				if states[0] != states[1] {
					t.Fatalf("state diverged from the pure-Add reference (%s):\nin place:\n%s\npure:\n%s", ctx, states[0], states[1])
				}
				if rendered[0] != rendered[1] {
					t.Fatalf("published models diverged from the pure-Add reference (%s):\n%s\nvs\n%s", ctx, rendered[0], rendered[1])
				}
				comparedIndexes += compareIndexes(t, ixs[0], ixs[1], ctx)
			}

			ups := equivStream(rnd, 2800, 30)
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

// TestLiftsOfUnseenCategories: lifting category values nobody has seen
// before interns them in ring's category dictionary, and the ids must
// be stable afterwards: a fresh engine fed the same stream later, when
// every value is already known, arrives at an equal payload.
func TestLiftsOfUnseenCategories(t *testing.T) {
	cfg := fivm.Config{
		Relations: equivRelations(),
		Features: []fivm.FeatureSpec{
			{Attr: "A", Categorical: true},
			{Attr: "C", Categorical: true},
			{Attr: "D", Categorical: true},
		},
	}
	open := func() *fivm.Analysis {
		e, err := fivm.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e.(*fivm.Analysis)
	}
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
	first, late := open(), open()
	for _, e := range []*fivm.Analysis{first, late} {
		for _, ups := range batches {
			if err := e.Apply(ups); err != nil {
				t.Fatal(err)
			}
		}
	}
	if first.Payload() == nil {
		t.Fatal("the stream joined nothing")
	}
	if !late.Payload().Equal(first.Payload()) {
		t.Fatal("an engine fed the same stream later disagrees: category ids moved")
	}
}
