package view

// Property-style checks of the commit path: the in-place commit and one
// over the pure ring Add must produce bit-identical trees after every
// batch across a fuzzed parameter space, and an annihilation round-trip
// property exercises the O(1) index-removal path until every batch's
// postings are gone again. The stream helpers and the chain and star
// schemas here are shared by the package's other tests.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/vo"
)

// chainRels is the three-relation chain join R(A,B) ⋈ S(B,C) ⋈ T(C,D).
var chainRels = []vo.Rel{
	{Name: "R", Schema: value.NewSchema("A", "B")},
	{Name: "S", Schema: value.NewSchema("B", "C")},
	{Name: "T", Schema: value.NewSchema("C", "D")},
}

// StarRels is a star join whose view tree has a node of four parts: F(A,
// B, C) with X(A, D), Y(A, E) and W(A) on A, and Z(B, G) on B. V@A joins
// V@B, V@D, V@E and the stored W, so a delta from Y or W enters a step of
// four parts behind its first position; V@B joins V@C and V@G. Exported
// for the view_test package.
var StarRels = []vo.Rel{
	{Name: "F", Schema: value.NewSchema("A", "B", "C")},
	{Name: "X", Schema: value.NewSchema("A", "D")},
	{Name: "Y", Schema: value.NewSchema("A", "E")},
	{Name: "Z", Schema: value.NewSchema("B", "G")},
	{Name: "W", Schema: value.NewSchema("A")},
}

// WidestStep returns the most parts any node of tr joins (children views
// and anchored relations). Exported for the view_test package.
func WidestStep[V any](tr *Tree[V]) int {
	widest := 0
	var walk func(n *Node[V])
	walk = func(n *Node[V]) {
		widest = max(widest, len(n.children)+len(n.rels))
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range tr.roots {
		walk(r)
	}
	return widest
}

// PostOrderLifts builds rels' greedy variable order and lifts attrs
// with the covar engine's ranged ring at the indexes that engine
// assigns: the order's post-order, in which every product of the tree
// meets adjacent ranges. perm[i] is attrs[i]'s lift index, so
// Widen(perm) reads a payload in attrs order. Exported for the view_test
// package.
func PostOrderLifts(t testing.TB, rels []vo.Rel, attrs ...string) (*vo.Order, map[string]ring.Lift[*ring.RangedCovar], []int) {
	t.Helper()
	ord, err := vo.Build(rels)
	if err != nil {
		t.Fatal(err)
	}
	var r ring.RangedCovarRing
	lifts := make(map[string]ring.Lift[*ring.RangedCovar], len(attrs))
	perm := make([]int, len(attrs))
	var post func(n *vo.Node)
	post = func(n *vo.Node) {
		for _, c := range n.Children {
			post(c)
		}
		if i := slices.Index(attrs, n.Var); i >= 0 {
			perm[i] = len(lifts)
			lifts[n.Var] = r.Lift(len(lifts))
		}
	}
	for _, root := range ord.Roots {
		post(root)
	}
	if len(lifts) != len(attrs) {
		t.Fatalf("attributes %v are not all in the order", attrs)
	}
	return ord, lifts, perm
}

// treeState renders every view of the tree plus the stored sources and result
// deterministically (sorted tuples, canonical payload rendering), so two
// trees can be compared for bit-identical state.
func treeState[V any](t *Tree[V]) string {
	var b strings.Builder
	var walk func(n *Node[V])
	walk = func(n *Node[V]) {
		fmt.Fprintf(&b, "view %s = %s\n", n.Var(), n.View())
		for _, c := range n.Children() {
			walk(c)
		}
	}
	for _, r := range t.Roots() {
		walk(r)
	}
	for _, name := range t.RelationNames() {
		if src, ok := t.Source(name); ok {
			fmt.Fprintf(&b, "source %s = %s\n", name, src)
		}
	}
	fmt.Fprintf(&b, "result = %s\n", t.Result())
	return b.String()
}

// biasedStream produces n mixed insert/delete updates over the given
// relations with small integer values, deleting only live tuples (with
// probability delBias per step) so payloads genuinely cancel to zero
// mid-stream. High biases make annihilation — and with it the O(1)
// index-removal path — the dominant operation.
func biasedStream(rnd *rand.Rand, rels []vo.Rel, n int, delBias float64) []Update {
	live := make(map[string][]value.Tuple, len(rels))
	ups := make([]Update, 0, n)
	for len(ups) < n {
		r := rels[rnd.Intn(len(rels))]
		if l := live[r.Name]; len(l) > 0 && rnd.Float64() < delBias {
			i := rnd.Intn(len(l))
			ups = append(ups, Update{Rel: r.Name, Tuple: l[i], Mult: -1})
			live[r.Name] = append(l[:i], l[i+1:]...)
			continue
		}
		tp := make(value.Tuple, r.Schema.Len())
		for i := range tp {
			tp[i] = value.Int(int64(rnd.Intn(6)))
		}
		ups = append(ups, Update{Rel: r.Name, Tuple: tp, Mult: 1})
		live[r.Name] = append(live[r.Name], tp)
	}
	return ups
}

// randomStream is biasedStream at the moderate delete bias most
// equivalence tests use.
func randomStream(rnd *rand.Rand, rels []vo.Rel, n int) []Update {
	return biasedStream(rnd, rels, n, 0.35)
}

// verifyTreeIndexes asserts every secondary index of every map in the
// tree (views, sources, result) exactly mirrors its primary contents.
func verifyTreeIndexes[V any](t *testing.T, tr *Tree[V], ctx string) {
	t.Helper()
	check := func(name string, m *relation.Map[V]) {
		if err := m.VerifyIndexes(); err != nil {
			t.Fatalf("%s: %s: %v", ctx, name, err)
		}
	}
	var walk func(n *Node[V])
	walk = func(n *Node[V]) {
		check("view "+n.Var(), n.View())
		for _, c := range n.Children() {
			walk(c)
		}
	}
	for _, r := range tr.Roots() {
		walk(r)
	}
	for _, name := range tr.RelationNames() {
		if src, ok := tr.Source(name); ok {
			check("source "+name, src)
		}
	}
	check("result", tr.Result())
}

func mustTree[V any](t testing.TB, spec Spec[V]) *Tree[V] {
	tr, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// pureRing hides a ring's Scratch extension: a tree over it
// commits, joins and aggregates with the pure Add and Mul only, so no
// ownership rule can matter to its result.
type pureRing[V any] struct{ ring.Ring[V] }

// commitEquivalence drives two trees of one spec over rels — one
// committing in place, one over the pure ring — through the same stream
// in batches of b and requires bit-identical state and consistent
// indexes after every batch.
func commitEquivalence[V any](t *testing.T, rels []vo.Rel, seed int64, b int, bias float64, build func(rels []vo.Rel, wrap func(ring.Ring[V]) ring.Ring[V]) *Tree[V]) {
	inPlace := build(rels, func(r ring.Ring[V]) ring.Ring[V] { return r })
	pure := build(rels, func(r ring.Ring[V]) ring.Ring[V] { return pureRing[V]{r} })
	trees := map[string]*Tree[V]{"in-place": inPlace, "pure": pure}

	rnd := rand.New(rand.NewSource(seed))
	init := map[string][]value.Tuple{}
	for _, r := range rels {
		for i := 0; i < 20; i++ {
			tp := make(value.Tuple, r.Schema.Len())
			for j := range tp {
				tp[j] = value.Int(int64(rnd.Intn(6)))
			}
			init[r.Name] = append(init[r.Name], tp)
		}
	}
	for _, tr := range trees {
		if err := tr.Init(init); err != nil {
			t.Fatal(err)
		}
	}
	ups := biasedStream(rnd, rels, 350, bias)
	for i := 0; i < len(ups); i += b {
		end := min(i+b, len(ups))
		for name, tr := range trees {
			if err := tr.ApplyUpdates(ups[i:end]); err != nil {
				t.Fatal(err)
			}
			verifyTreeIndexes(t, tr, name)
		}
		if got, want := treeState(inPlace), treeState(pure); got != want {
			t.Fatalf("in-place diverged from pure after batch ending at %d (batch=%d bias=%.2f):\n%s\npure:\n%s",
				end, b, bias, got, want)
		}
	}
}

// FuzzCommitEquivalence is the seeded property check of the in-place
// commit: for ANY (seed, batch size, delete bias), every payload shape
// and both the chain and the star schema, the tree must stay
// bit-identical to one committed with the pure ring Add after every
// batch, with every built index consistent. The inputs are plain
// scalars, so a failing case replays deterministically and the fuzzer
// shrinks it to a minimal corpus entry.
func FuzzCommitEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(35))
	f.Add(int64(7), uint8(9), uint8(60))
	// Annihilation-heavy: ~90% of steps delete a live tuple, so most of
	// the stream drains postings through the O(1) removal path.
	f.Add(int64(42), uint8(180), uint8(90))
	if w := WidestStep(mustTree(f, Spec[int64]{Ring: ring.Ints{}, Relations: StarRels})); w < 3 {
		f.Fatalf("the star tree's widest step joins %d parts; the schema no longer reaches a step of three or more", w)
	}
	f.Fuzz(func(t *testing.T, seed int64, batch, delBias uint8) {
		b := int(batch)%200 + 1
		// Cap the bias below 1 so streams always make progress.
		bias := float64(int(delBias)%96) / 100
		// One tree per payload shape: value-typed (Z with a group-by),
		// the ranged float slab (COVAR) and the sorted coefficient slice
		// (relational COVAR with a categorical lift). The last two
		// implement Scratch, so their views commit in place.
		var cr ring.RangedCovarRing
		rc := ring.NewRelCovarRing(3)
		schemas := [][]vo.Rel{chainRels, StarRels}
		t.Run("ints", func(t *testing.T) {
			for _, rels := range schemas {
				commitEquivalence(t, rels, seed, b, bias, func(rels []vo.Rel, wrap func(ring.Ring[int64]) ring.Ring[int64]) *Tree[int64] {
					return mustTree(t, Spec[int64]{Ring: wrap(ring.Ints{}), Relations: rels, Free: []string{"B"}})
				})
			}
		})
		t.Run("covar", func(t *testing.T) {
			for _, rels := range schemas {
				ord, lifts, _ := PostOrderLifts(t, rels, "B", "C", "D")
				commitEquivalence(t, rels, seed, b, bias, func(rels []vo.Rel, wrap func(ring.Ring[*ring.RangedCovar]) ring.Ring[*ring.RangedCovar]) *Tree[*ring.RangedCovar] {
					return mustTree(t, Spec[*ring.RangedCovar]{Ring: wrap(cr), Order: ord, Relations: rels, Lifts: lifts})
				})
			}
		})
		t.Run("relcovar", func(t *testing.T) {
			for _, rels := range schemas {
				commitEquivalence(t, rels, seed, b, bias, func(rels []vo.Rel, wrap func(ring.Ring[*ring.RelCovar]) ring.Ring[*ring.RelCovar]) *Tree[*ring.RelCovar] {
					return mustTree(t, Spec[*ring.RelCovar]{Ring: wrap(rc), Relations: rels, Free: []string{"C"},
						Lifts: map[string]ring.Lift[*ring.RelCovar]{"A": rc.LiftContinuous(0), "B": rc.LiftCategorical(1), "D": rc.LiftContinuous(2)}})
				})
			}
		})
	})
}

// TestAnnihilationRoundTrip: applying a random insert batch and then its
// exact negation must restore every view, source, and index bucket to
// the pre-batch state — each round drives one full build-up/tear-down
// of postings through the O(1) removal path.
func TestAnnihilationRoundTrip(t *testing.T) {
	tr := mustTree(t, Spec[int64]{Ring: ring.Ints{}, Relations: chainRels, Free: []string{"B"}})
	if err := tr.Init(nil); err != nil {
		t.Fatal(err)
	}

	rnd := rand.New(rand.NewSource(11))
	// Warm-up populates the sources and forces the lazy index builds via
	// real deltas, so the rounds below mutate BUILT indexes.
	if err := tr.ApplyUpdates(biasedStream(rnd, chainRels, 200, 0.3)); err != nil {
		t.Fatal(err)
	}
	base := treeState(tr)

	for round := 0; round < 15; round++ {
		ins := make([]Update, 0, 180)
		for i := 0; i < 180; i++ {
			r := chainRels[rnd.Intn(len(chainRels))]
			ins = append(ins, Update{Rel: r.Name, Tuple: value.T(rnd.Intn(7), rnd.Intn(7)), Mult: 1})
		}
		neg := make([]Update, len(ins))
		for i, u := range ins {
			neg[len(ins)-1-i] = Update{Rel: u.Rel, Tuple: u.Tuple, Mult: -1}
		}
		for _, half := range [][]Update{ins, neg} {
			if err := tr.ApplyUpdates(half); err != nil {
				t.Fatal(err)
			}
			verifyTreeIndexes(t, tr, fmt.Sprintf("round %d", round))
		}
		if got := treeState(tr); got != base {
			t.Fatalf("round %d: negation did not restore the pre-batch state:\nwant:\n%s\ngot:\n%s", round, base, got)
		}
	}
}
