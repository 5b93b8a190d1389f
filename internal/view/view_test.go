package view_test

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

// naiveCount computes SUM(1) over the natural join of the relations by
// brute-force join, for cross-checking maintained results.
func naiveCount(rels []vo.Rel, data map[string]*relation.Map[int64]) *relation.Map[int64] {
	z := ring.Ints{}
	cur := data[rels[0].Name]
	for _, r := range rels[1:] {
		cur = relation.Join[int64](z, cur, data[r.Name])
	}
	return cur
}

func sumAll(m *relation.Map[int64]) int64 {
	var total int64
	m.Each(func(_ value.Tuple, p int64) { total += p })
	return total
}

// updates builds one update of rel per tuple, each with multiplicity mult.
func updates(rel string, mult int, tuples ...value.Tuple) []view.Update {
	ups := make([]view.Update, len(tuples))
	for i, tp := range tuples {
		ups[i] = view.Update{Rel: rel, Tuple: tp, Mult: mult}
	}
	return ups
}

// TestRandomEquivalence is the central engine property test: on random
// three-relation databases with random mixed insert/delete streams, the
// maintained count must equal brute-force recomputation after every
// update batch.
func TestRandomEquivalence(t *testing.T) {
	rels := []vo.Rel{
		{Name: "R", Schema: value.NewSchema("A", "B")},
		{Name: "S", Schema: value.NewSchema("B", "C")},
		{Name: "T", Schema: value.NewSchema("C", "D")},
	}
	z := ring.Ints{}
	rng := rand.New(rand.NewSource(23))

	for iter := 0; iter < 40; iter++ {
		tr, err := view.New(view.Spec[int64]{Ring: z, Relations: rels})
		if err != nil {
			t.Fatal(err)
		}
		// Shadow copies for the naive recomputation.
		shadow := map[string]*relation.Map[int64]{}
		for _, r := range rels {
			shadow[r.Name] = relation.New[int64](r.Schema)
		}
		init := map[string][]value.Tuple{}
		for _, r := range rels {
			n := rng.Intn(8)
			for i := 0; i < n; i++ {
				tp := value.T(rng.Intn(3), rng.Intn(3))
				init[r.Name] = append(init[r.Name], tp)
				shadow[r.Name].Merge(z, tp, 1)
			}
		}
		if err := tr.Init(init); err != nil {
			t.Fatal(err)
		}

		check := func(step int) {
			t.Helper()
			want := sumAll(naiveCount(rels, shadow))
			got := tr.ResultPayload()
			if got != want {
				t.Fatalf("iter %d step %d: maintained count %d, naive %d", iter, step, got, want)
			}
		}
		check(-1)

		// Random update stream: inserts anywhere; deletes only of live
		// tuples (well-formed streams).
		for step := 0; step < 30; step++ {
			r := rels[rng.Intn(len(rels))]
			sh := shadow[r.Name]
			var up view.Update
			if sh.Len() > 0 && rng.Intn(2) == 0 {
				// Delete a random existing tuple.
				k := rng.Intn(sh.Len())
				var pick value.Tuple
				i := 0
				sh.Each(func(tp value.Tuple, _ int64) {
					if i == k {
						pick = tp
					}
					i++
				})
				up = view.Update{Rel: r.Name, Tuple: pick, Mult: -1}
			} else {
				up = view.Update{Rel: r.Name, Tuple: value.T(rng.Intn(3), rng.Intn(3)), Mult: 1}
			}
			sh.Merge(z, up.Tuple, int64(up.Mult))
			if err := tr.ApplyUpdates([]view.Update{up}); err != nil {
				t.Fatal(err)
			}
			check(step)
		}
	}
}

// TestGroupByMaintenance checks free (group-by) variables: the result is
// keyed by them and maintained under updates.
func TestGroupByMaintenance(t *testing.T) {
	rels := []vo.Rel{
		{Name: "R", Schema: value.NewSchema("A", "B")},
		{Name: "S", Schema: value.NewSchema("A", "C")},
	}
	tr, err := view.New(view.Spec[int64]{
		Ring: ring.Ints{}, Relations: rels, Free: []string{"A"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(map[string][]value.Tuple{
		"R": {value.T("a1", 1), value.T("a1", 2), value.T("a2", 1)},
		"S": {value.T("a1", 10), value.T("a2", 20), value.T("a2", 21)},
	}); err != nil {
		t.Fatal(err)
	}
	res := tr.Result()
	if !res.Schema().Equal(value.NewSchema("A")) {
		t.Fatalf("result schema = %v, want [A]", res.Schema())
	}
	if got, _ := res.Get(value.T("a1")); got != 2 {
		t.Errorf("count(a1) = %d, want 2", got)
	}
	if got, _ := res.Get(value.T("a2")); got != 2 {
		t.Errorf("count(a2) = %d, want 2", got)
	}
	// Delete one S tuple of a2: count(a2) drops to 1.
	if err := tr.ApplyUpdates(updates("S", -1, value.T("a2", 20))); err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.Result().Get(value.T("a2")); got != 1 {
		t.Errorf("count(a2) after delete = %d, want 1", got)
	}
	// Delete the last a2 tuples: the group disappears.
	if err := tr.ApplyUpdates(updates("S", -1, value.T("a2", 21))); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Result().Get(value.T("a2")); ok {
		t.Error("empty group a2 still present")
	}
}

// TestGroupByRandomEquivalence extends the random property test to a
// grouped query.
func TestGroupByRandomEquivalence(t *testing.T) {
	rels := []vo.Rel{
		{Name: "R", Schema: value.NewSchema("A", "B")},
		{Name: "S", Schema: value.NewSchema("B", "C")},
	}
	z := ring.Ints{}
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 30; iter++ {
		tr, err := view.New(view.Spec[int64]{Ring: z, Relations: rels, Free: []string{"A"}})
		if err != nil {
			t.Fatal(err)
		}
		shadow := map[string]*relation.Map[int64]{
			"R": relation.New[int64](rels[0].Schema),
			"S": relation.New[int64](rels[1].Schema),
		}
		if err := tr.Init(nil); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 25; step++ {
			r := rels[rng.Intn(2)]
			tp := value.T(rng.Intn(3), rng.Intn(3))
			mult := 1
			if p, ok := shadow[r.Name].Get(tp); ok && p > 0 && rng.Intn(2) == 0 {
				mult = -1
			}
			shadow[r.Name].Merge(z, tp, int64(mult))
			if err := tr.ApplyUpdates([]view.Update{{Rel: r.Name, Tuple: tp, Mult: mult}}); err != nil {
				t.Fatal(err)
			}
			want := relation.Aggregate[int64](z,
				relation.Join[int64](z, shadow["R"], shadow["S"]),
				value.NewSchema("A"), "", nil)
			if !tr.Result().Equal(want, func(a, b int64) bool { return a == b }) {
				t.Fatalf("iter %d step %d:\n got %v\nwant %v", iter, step, tr.Result(), want)
			}
		}
	}
}

// TestDisconnectedQuery checks the multi-root (Cartesian) case.
func TestDisconnectedQuery(t *testing.T) {
	rels := []vo.Rel{
		{Name: "R", Schema: value.NewSchema("A")},
		{Name: "S", Schema: value.NewSchema("B")},
	}
	tr, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(map[string][]value.Tuple{
		"R": {value.T(1), value.T(2)},
		"S": {value.T(10), value.T(20), value.T(30)},
	}); err != nil {
		t.Fatal(err)
	}
	if got := tr.ResultPayload(); got != 6 {
		t.Errorf("cartesian count = %d, want 6", got)
	}
	// Insert into R: count grows by |S|.
	if err := tr.ApplyUpdates(updates("R", 1, value.T(3))); err != nil {
		t.Fatal(err)
	}
	if got := tr.ResultPayload(); got != 9 {
		t.Errorf("after insert = %d, want 9", got)
	}
	// Delete from S: count drops by |R|.
	if err := tr.ApplyUpdates(updates("S", -1, value.T(10))); err != nil {
		t.Fatal(err)
	}
	if got := tr.ResultPayload(); got != 6 {
		t.Errorf("after delete = %d, want 6", got)
	}
}

func TestErrorPaths(t *testing.T) {
	rels := []vo.Rel{{Name: "R", Schema: value.NewSchema("A")}}
	if _, err := view.New(view.Spec[int64]{Relations: rels}); err == nil {
		t.Error("nil ring accepted")
	}
	if _, err := view.New(view.Spec[int64]{
		Ring: ring.Ints{}, Relations: rels, Free: []string{"Z"},
	}); err == nil {
		t.Error("unknown free variable accepted")
	}
	if _, err := view.New(view.Spec[int64]{
		Ring: ring.Ints{}, Relations: rels,
		Lifts: map[string]ring.Lift[int64]{"Z": ring.CountLift},
	}); err == nil {
		t.Error("lift for unknown variable accepted")
	}
	if _, err := view.New(view.Spec[int64]{
		Ring:      ring.Ints{},
		Relations: []vo.Rel{rels[0], rels[0]},
	}); err == nil {
		t.Error("duplicate relation accepted")
	}

	tr, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(map[string][]value.Tuple{"Z": nil}); err == nil {
		t.Error("Init with unknown relation accepted")
	}
	if err := tr.ApplyUpdates([]view.Update{{Rel: "Z", Tuple: value.T(1), Mult: 1}}); err == nil {
		t.Error("update to unknown relation accepted")
	}
	bad := relation.New[int64](value.NewSchema("X"))
	if err := tr.ApplyDelta("R", bad); err == nil {
		t.Error("delta schema mismatch accepted")
	}
	if _, err := tr.DeltaFor("Z", nil); err == nil {
		t.Error("DeltaFor unknown relation accepted")
	}
	if _, err := tr.DeltaFor("R", []view.Update{{Rel: "S", Tuple: value.T(1), Mult: 1}}); err == nil {
		t.Error("DeltaFor cross-relation update accepted")
	}
}

func TestEmptyDeltaIsNoop(t *testing.T) {
	rels := []vo.Rel{{Name: "R", Schema: value.NewSchema("A")}}
	tr, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(map[string][]value.Tuple{"R": {value.T(1)}}); err != nil {
		t.Fatal(err)
	}
	before := tr.ResultPayload()
	d := relation.New[int64](rels[0].Schema)
	if err := tr.ApplyDelta("R", d); err != nil {
		t.Fatal(err)
	}
	if tr.ResultPayload() != before {
		t.Error("empty delta changed the result")
	}
	// An insert+delete pair inside one batch cancels before propagation.
	if err := tr.ApplyUpdates([]view.Update{
		{Rel: "R", Tuple: value.T(7), Mult: 1},
		{Rel: "R", Tuple: value.T(7), Mult: -1},
	}); err != nil {
		t.Fatal(err)
	}
	if tr.ResultPayload() != before {
		t.Error("self-cancelling batch changed the result")
	}
}

func TestStatsAccounting(t *testing.T) {
	rels := []vo.Rel{{Name: "R", Schema: value.NewSchema("A")}}
	tr, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(nil); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Updates != 0 {
		t.Error("fresh tree has updates")
	}
	if err := tr.ApplyUpdates(updates("R", 1, value.T(1))); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Updates != 1 || st.DeltaTuples == 0 {
		t.Errorf("stats = %+v", st)
	}
	// DeltaTuples is a function of the stream, whatever the batch size:
	// 200 distinct R tuples merge 200 source tuples, one group into the
	// view at A (keyed by nothing) and one into the result.
	before := st.DeltaTuples
	var batch []view.Update
	for a := 100; a < 300; a++ {
		batch = append(batch, updates("R", 1, value.T(a))...)
	}
	if err := tr.ApplyUpdates(batch); err != nil {
		t.Fatal(err)
	}
	if st = tr.Stats(); st.Updates != 2 || st.DeltaTuples-before != 202 {
		t.Errorf("a 200-tuple batch: stats = %+v, want 2 updates and %d + 202 delta tuples", st, before)
	}
}

func TestSourceAccessors(t *testing.T) {
	rels := []vo.Rel{
		{Name: "R", Schema: value.NewSchema("A")},
		{Name: "S", Schema: value.NewSchema("A")},
	}
	tr, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(map[string][]value.Tuple{"R": {value.T(1)}}); err != nil {
		t.Fatal(err)
	}
	src, ok := tr.Source("R")
	if !ok || src.Len() != 1 {
		t.Errorf("Source(R) = %v, %v", src, ok)
	}
	if _, ok := tr.Source("Z"); ok {
		t.Error("phantom source")
	}
	names := tr.RelationNames()
	if len(names) != 2 || names[0] != "R" || names[1] != "S" {
		t.Errorf("RelationNames = %v", names)
	}
	if tr.Ring() == nil || tr.Order() == nil || len(tr.Roots()) == 0 {
		t.Error("accessors returned zero values")
	}
}

// TestMultiplicityUpdates checks Mult beyond ±1.
func TestMultiplicityUpdates(t *testing.T) {
	rels := []vo.Rel{{Name: "R", Schema: value.NewSchema("A")}}
	tr, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.ApplyUpdates([]view.Update{{Rel: "R", Tuple: value.T(1), Mult: 3}}); err != nil {
		t.Fatal(err)
	}
	if got := tr.ResultPayload(); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	if err := tr.ApplyUpdates([]view.Update{{Rel: "R", Tuple: value.T(1), Mult: -2}}); err != nil {
		t.Fatal(err)
	}
	if got := tr.ResultPayload(); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
}

// TestReinitDiscardsState checks that Init resets previous contents.
func TestReinitDiscardsState(t *testing.T) {
	rels := []vo.Rel{{Name: "R", Schema: value.NewSchema("A")}}
	tr, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(map[string][]value.Tuple{"R": {value.T(1), value.T(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(map[string][]value.Tuple{"R": {value.T(9)}}); err != nil {
		t.Fatal(err)
	}
	if got := tr.ResultPayload(); got != 1 {
		t.Errorf("count after re-init = %d, want 1", got)
	}
}

// TestHandCraftedOrder runs the engine over a user-supplied variable
// order rather than the greedy default.
func TestHandCraftedOrder(t *testing.T) {
	rels := []vo.Rel{
		{Name: "R", Schema: value.NewSchema("A", "B")},
		{Name: "S", Schema: value.NewSchema("A", "C", "D")},
	}
	// A different (valid) order: D at the root, then C, then A, with R
	// under A → B.
	ord := &vo.Order{Roots: []*vo.Node{{
		Var: "D", Keys: value.NewSchema(),
		Children: []*vo.Node{{
			Var: "C", Keys: value.NewSchema("D"),
			Children: []*vo.Node{{
				Var: "A", Keys: value.NewSchema("D", "C"),
				Rels: []vo.Rel{rels[1]},
				Children: []*vo.Node{{
					Var: "B", Keys: value.NewSchema("A"),
					Rels: []vo.Rel{rels[0]},
				}},
			}},
		}},
	}}}
	tr, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Order: ord, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(map[string][]value.Tuple{
		"R": {value.T("a1", 1), value.T("a2", 2)},
		"S": {value.T("a1", 1, 1), value.T("a1", 2, 3), value.T("a2", 2, 2)},
	}); err != nil {
		t.Fatal(err)
	}
	if got := tr.ResultPayload(); got != 3 {
		t.Errorf("count under hand-crafted order = %d, want 3", got)
	}
	if err := tr.ApplyUpdates(updates("R", 1, value.T("a1", 1))); err != nil {
		t.Fatal(err)
	}
	if got := tr.ResultPayload(); got != 5 {
		t.Errorf("count after insert = %d, want 5", got)
	}
}

// TestInitWeighted loads relations with explicit ring payloads — the
// matrix-chain interpretation — and checks maintenance over them.
func TestInitWeighted(t *testing.T) {
	rels := []vo.Rel{
		{Name: "MA", Schema: value.NewSchema("I", "J")},
		{Name: "MB", Schema: value.NewSchema("J", "K")},
	}
	f := ring.Floats{}
	tr, err := view.New(view.Spec[float64]{
		Ring: f, Relations: rels, Free: []string{"I", "K"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A = [[1 2],[3 4]], B = [[5 6],[7 8]] → AB = [[19 22],[43 50]].
	a := relation.New[float64](rels[0].Schema)
	a.Set(value.T(0, 0), 1)
	a.Set(value.T(0, 1), 2)
	a.Set(value.T(1, 0), 3)
	a.Set(value.T(1, 1), 4)
	b := relation.New[float64](rels[1].Schema)
	b.Set(value.T(0, 0), 5)
	b.Set(value.T(0, 1), 6)
	b.Set(value.T(1, 0), 7)
	b.Set(value.T(1, 1), 8)
	if err := tr.InitWeighted(map[string]*relation.Map[float64]{"MA": a, "MB": b}); err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]float64{{0, 0}: 19, {0, 1}: 22, {1, 0}: 43, {1, 1}: 50}
	for idx, w := range want {
		if got := tr.Result().GetOr(value.T(idx[0], idx[1]), 0); got != w {
			t.Errorf("AB[%d,%d] = %v, want %v", idx[0], idx[1], got, w)
		}
	}
	// Entry update: ΔA[0,0] = +1 → first row of AB gains B's first row.
	d := relation.New[float64](rels[0].Schema)
	d.Set(value.T(0, 0), 1)
	if err := tr.ApplyDelta("MA", d); err != nil {
		t.Fatal(err)
	}
	if got := tr.Result().GetOr(value.T(0, 0), 0); got != 24 {
		t.Errorf("AB[0,0] after delta = %v, want 24", got)
	}
	if got := tr.Result().GetOr(value.T(0, 1), 0); got != 28 {
		t.Errorf("AB[0,1] after delta = %v, want 28", got)
	}
	// The engine clones inputs: mutating the original must not matter.
	a.Set(value.T(0, 0), 99)
	if got := tr.Result().GetOr(value.T(0, 0), 0); got != 24 {
		t.Error("InitWeighted aliased its input")
	}
	// Errors.
	if err := tr.InitWeighted(map[string]*relation.Map[float64]{"X": a}); err == nil {
		t.Error("unknown relation accepted")
	}
	bad := relation.New[float64](value.NewSchema("Z"))
	if err := tr.InitWeighted(map[string]*relation.Map[float64]{"MA": bad}); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// TestNodeAccessorsAndDeltaFor covers the inspection accessors and the
// explicit delta-construction path.
func TestNodeAccessorsAndDeltaFor(t *testing.T) {
	rels := figure1Rels()
	tr, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(figure1Data()); err != nil {
		t.Fatal(err)
	}
	root := tr.Roots()[0]
	if !root.Keys().Equal(value.NewSchema()) {
		t.Errorf("root keys = %v", root.Keys())
	}
	var anchored []string
	var walk func(n *view.Node[int64])
	walk = func(n *view.Node[int64]) {
		anchored = append(anchored, n.RelNames()...)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	if len(anchored) != 2 {
		t.Errorf("anchored relations = %v", anchored)
	}
	if tr.Lift("B") != nil {
		t.Error("count tree has no lifts")
	}

	// DeltaFor builds multiplicity-accumulating deltas.
	d, err := tr.DeltaFor("R", []view.Update{
		{Rel: "R", Tuple: value.T("a9", 9), Mult: 2},
		{Rel: "R", Tuple: value.T("a9", 9), Mult: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Get(value.T("a9", 9)); got != 1 {
		t.Errorf("delta multiplicity = %d, want 1", got)
	}
	before := tr.ResultPayload()
	if err := tr.ApplyDelta("R", d); err != nil {
		t.Fatal(err)
	}
	// a9 has no join partner, so the result is unchanged but the source
	// gained the tuple.
	if tr.ResultPayload() != before {
		t.Error("dangling insert changed the result")
	}
	src, _ := tr.Source("R")
	if got, _ := src.Get(value.T("a9", 9)); got != 1 {
		t.Error("source not updated")
	}
}
