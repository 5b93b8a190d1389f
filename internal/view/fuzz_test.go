package view

// Property-style checks of the commit path. The hand-picked equivalence
// tests in parallel_test.go pin specific worker counts and streams; here
// the same invariant — parallel, sequential and pure-Add commits produce
// bit-identical trees after every batch — is checked across a fuzzed
// parameter space, and an annihilation round-trip property exercises the
// O(1) index-removal path until every batch's postings are gone again.

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
)

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
		src, _ := tr.Source(name)
		check("source "+name, src)
	}
	check("result", tr.Result())
}

func groupByTree(t testing.TB) *Tree[int64] {
	return mustTree(t, Spec[int64]{Ring: ring.Ints{}, Relations: parallelRels, Free: []string{"B"}})
}

func mustTree[V any](t testing.TB, spec Spec[V]) *Tree[V] {
	tr, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// pureRing hides a ring's Scratch and FMA extensions: a tree over it
// commits, joins and aggregates with the pure Add and Mul only, so no
// ownership rule can matter to its result.
type pureRing[V any] struct{ ring.Ring[V] }

// commitEquivalence drives three trees of one spec — sequential,
// parallel (w workers), and sequential over the pure ring — through the
// same stream in batches of b and requires bit-identical state and
// consistent indexes after every batch.
func commitEquivalence[V any](t *testing.T, seed int64, w, b int, bias float64, build func(wrap func(ring.Ring[V]) ring.Ring[V]) *Tree[V]) {
	same := func(r ring.Ring[V]) ring.Ring[V] { return r }
	seq, par := build(same), build(same)
	pure := build(func(r ring.Ring[V]) ring.Ring[V] { return pureRing[V]{r} })
	par.SetParallelism(w, 1)
	trees := map[string]*Tree[V]{"sequential": seq, "parallel": par, "pure": pure}

	rnd := rand.New(rand.NewSource(seed))
	init := map[string][]value.Tuple{}
	for _, r := range parallelRels {
		for i := 0; i < 20; i++ {
			init[r.Name] = append(init[r.Name], value.T(rnd.Intn(6), rnd.Intn(6)))
		}
	}
	for _, tr := range trees {
		if err := tr.Init(init); err != nil {
			t.Fatal(err)
		}
	}
	ups := biasedStream(rnd, parallelRels, 350, bias)
	for i := 0; i < len(ups); i += b {
		end := min(i+b, len(ups))
		for name, tr := range trees {
			if err := tr.ApplyUpdates(ups[i:end]); err != nil {
				t.Fatal(err)
			}
			verifyTreeIndexes(t, tr, name)
		}
		want := treeState(pure)
		for name, tr := range trees {
			if got := treeState(tr); got != want {
				t.Fatalf("%s diverged from pure after batch ending at %d (workers=%d batch=%d bias=%.2f):\n%s\npure:\n%s",
					name, end, w, b, bias, got, want)
			}
		}
	}
}

// FuzzParallelCommitEquivalence is the seeded property check behind the
// hand-picked equivalence tests: for ANY (seed, worker count, batch
// size, delete bias) and every payload shape, the parallel and the
// in-place sequential commit must produce trees bit-identical to one
// committed with the pure ring Add after every batch, with every built
// index consistent. The inputs are four plain scalars, so a failing
// case replays deterministically and the fuzzer shrinks it to a minimal
// corpus entry.
func FuzzParallelCommitEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(60), uint8(35))
	f.Add(int64(7), uint8(2), uint8(9), uint8(60))
	// Annihilation-heavy: ~90% of steps delete a live tuple, so most of
	// the stream drains postings through the O(1) removal path.
	f.Add(int64(42), uint8(8), uint8(180), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, workers, batch, delBias uint8) {
		w := int(workers)%8 + 1
		b := int(batch)%200 + 1
		// Cap the bias below 1 so streams always make progress.
		bias := float64(int(delBias)%96) / 100
		// One tree per payload shape: value-typed (Z with a group-by),
		// the flat float slab (COVAR) and the map-of-maps compound
		// (relational COVAR with a categorical lift). The last two
		// implement Scratch, so their views commit in place.
		cr, rc := ring.NewCovarRing(3), ring.NewRelCovarRing(3)
		t.Run("ints", func(t *testing.T) {
			commitEquivalence(t, seed, w, b, bias, func(wrap func(ring.Ring[int64]) ring.Ring[int64]) *Tree[int64] {
				return mustTree(t, Spec[int64]{Ring: wrap(ring.Ints{}), Relations: parallelRels, Free: []string{"B"}})
			})
		})
		t.Run("covar", func(t *testing.T) {
			commitEquivalence(t, seed, w, b, bias, func(wrap func(ring.Ring[*ring.Covar]) ring.Ring[*ring.Covar]) *Tree[*ring.Covar] {
				return mustTree(t, Spec[*ring.Covar]{Ring: wrap(cr), Relations: parallelRels,
					Lifts: map[string]ring.Lift[*ring.Covar]{"B": cr.Lift(0), "C": cr.Lift(1), "D": cr.Lift(2)}})
			})
		})
		t.Run("relcovar", func(t *testing.T) {
			commitEquivalence(t, seed, w, b, bias, func(wrap func(ring.Ring[*ring.RelCovar]) ring.Ring[*ring.RelCovar]) *Tree[*ring.RelCovar] {
				return mustTree(t, Spec[*ring.RelCovar]{Ring: wrap(rc), Relations: parallelRels, Free: []string{"C"},
					Lifts: map[string]ring.Lift[*ring.RelCovar]{"A": rc.LiftContinuous(0), "B": rc.LiftCategorical(1), "D": rc.LiftContinuous(2)}})
			})
		})
	})
}

// TestParallelAnnihilationRoundTrip: applying a random insert batch and
// then its exact negation through the parallel path must restore every
// view, source, and index bucket to the pre-batch state — each round
// drives one full build-up/tear-down of postings through the O(1)
// removal path. A sequential twin is compared after every half-round.
func TestParallelAnnihilationRoundTrip(t *testing.T) {
	seq, par := groupByTree(t), groupByTree(t)
	par.SetParallelism(4, 1)
	if err := seq.Init(nil); err != nil {
		t.Fatal(err)
	}
	if err := par.Init(nil); err != nil {
		t.Fatal(err)
	}

	rnd := rand.New(rand.NewSource(11))
	// Warm-up populates the sources and forces the lazy index builds via
	// real deltas, so the rounds below mutate BUILT indexes.
	warm := biasedStream(rnd, parallelRels, 200, 0.3)
	if err := seq.ApplyUpdates(warm); err != nil {
		t.Fatal(err)
	}
	if err := par.ApplyUpdates(warm); err != nil {
		t.Fatal(err)
	}
	if s, p := treeState(seq), treeState(par); s != p {
		t.Fatalf("warm-up diverged:\n%s\nvs\n%s", s, p)
	}
	base := treeState(par)

	for round := 0; round < 15; round++ {
		ins := make([]Update, 0, 180)
		for i := 0; i < 180; i++ {
			r := parallelRels[rnd.Intn(len(parallelRels))]
			ins = append(ins, Update{Rel: r.Name, Tuple: value.T(rnd.Intn(7), rnd.Intn(7)), Mult: 1})
		}
		neg := make([]Update, len(ins))
		for i, u := range ins {
			neg[len(ins)-1-i] = Update{Rel: u.Rel, Tuple: u.Tuple, Mult: -1}
		}
		for _, half := range [][]Update{ins, neg} {
			if err := seq.ApplyUpdates(half); err != nil {
				t.Fatal(err)
			}
			if err := par.ApplyUpdates(half); err != nil {
				t.Fatal(err)
			}
			if s, p := treeState(seq), treeState(par); s != p {
				t.Fatalf("round %d diverged:\nsequential:\n%s\nparallel:\n%s", round, s, p)
			}
			verifyTreeIndexes(t, seq, "sequential")
			verifyTreeIndexes(t, par, "parallel")
		}
		if got := treeState(par); got != base {
			t.Fatalf("round %d: negation did not restore the pre-batch state:\nwant:\n%s\ngot:\n%s", round, base, got)
		}
	}
}
