package view

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/vo"
)

// The recycled step buffers (deltaBuf). The star below has the shape
// that matters: the fact table's path and a dimension's path share
// their upper nodes, so one node's buffer alternates between
// batch-sized and two-tuple deltas.
var starRels = []vo.Rel{
	{Name: "Inventory", Schema: value.NewSchema("locn", "dateid", "ksn", "units")},
	{Name: "Weather", Schema: value.NewSchema("locn", "dateid", "maxtemp")},
	{Name: "Item", Schema: value.NewSchema("ksn", "prize")},
}

const starLocns, starDates, starItems = 30, 40, 200

func starTree[V any](t testing.TB, r ring.Ring[V], lifts map[string]ring.Lift[V]) *Tree[V] {
	tr := mustTree(t, Spec[V]{Ring: r, Relations: starRels, Lifts: lifts})
	shared := 0
	for _, n := range tr.sources["Weather"].path {
		for _, m := range tr.sources["Inventory"].path {
			if n == m {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("fixture: the Inventory and Weather paths share no node")
	}
	return tr
}

// starCovarTree is the star over the covar engine's ring, lifts at the
// post-order indexes of the greedy order starTree builds.
func starCovarTree(t testing.TB) *Tree[*ring.RangedCovar] {
	_, lifts, _ := PostOrderLifts(t, starRels, "units", "maxtemp", "prize")
	return starTree[*ring.RangedCovar](t, ring.RangedCovarRing{}, lifts)
}

func starDims() map[string][]value.Tuple {
	data := map[string][]value.Tuple{}
	for l := 0; l < starLocns; l++ {
		for d := 0; d < starDates; d++ {
			data["Weather"] = append(data["Weather"], value.T(l, d, (l+d)%7))
		}
	}
	for k := 0; k < starItems; k++ {
		data["Item"] = append(data["Item"], value.T(k, k%5))
	}
	return data
}

// starFacts returns n distinct Inventory tuples starting at serial s.
func starFacts(s, n int) []value.Tuple {
	out := make([]value.Tuple, n)
	for i := range out {
		k := s + i
		out[i] = value.T(k%starLocns, (k/starLocns)%starDates, (k*7)%starItems, k)
	}
	return out
}

// eachBuf visits every step buffer of the tree.
func eachBuf[V any](tr *Tree[V], fn func(name string, b *deltaBuf[V])) {
	var walk func(n *Node[V])
	walk = func(n *Node[V]) {
		fn("node "+n.Var(), &n.buf)
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range tr.roots {
		walk(r)
	}
	fn("result", &tr.resBuf)
}

// checkBuffersReleased: once a maintenance call has returned no buffer
// holds a tuple or payload of the applied delta — every kept buffer is
// empty (its entries went back to its arena, which relation's
// TestResetLeavesOnlyClearedEntries pins as cleared), the steps
// scratch points at nothing, and nothing kept is larger than bufKeep.
func checkBuffersReleased[V any](t *testing.T, tr *Tree[V], ctx string) {
	t.Helper()
	eachBuf(tr, func(name string, b *deltaBuf[V]) {
		if b.m != nil && b.m.Len() != 0 {
			t.Fatalf("%s: buffer of %s still holds %d tuples", ctx, name, b.m.Len())
		}
		if b.size > bufKeep || (b.m == nil && b.size != 0) {
			t.Fatalf("%s: buffer of %s is sized %d (kept: %v), cap %d", ctx, name, b.size, b.m != nil, bufKeep)
		}
	})
	for i, m := range tr.propSteps[:cap(tr.propSteps)] {
		if m != nil {
			t.Fatalf("%s: steps scratch slot %d still points at a delta view", ctx, i)
		}
	}
}

func pathBufSizes[V any](tr *Tree[V], rel string) (max int) {
	for _, n := range tr.sources[rel].path {
		if n.buf.size > max {
			max = n.buf.size
		}
	}
	if tr.resBuf.size > max {
		max = tr.resBuf.size
	}
	return max
}

// TestBuffersFollowTheDeltaNotTheLoad: a buffer's cost is its capacity,
// so (a) after a 100 000-tuple load the single-tuple calls that follow
// run on buffers sized for them, from the first one on, and (b) a large
// delta that aggregates to a handful of groups — hint far above fill —
// leaves no table of its size behind.
func TestBuffersFollowTheDeltaNotTheLoad(t *testing.T) {
	tr := starTree[int64](t, ring.Ints{}, nil)
	data := starDims()
	data["Inventory"] = starFacts(0, 100_000)
	if err := tr.Init(data); err != nil {
		t.Fatal(err)
	}
	checkBuffersReleased(t, tr, "after Init")
	const small = bufSlack * (1 + bufSlack) // what a single-tuple delta may refill
	for i := 0; i < 3; i++ {
		if err := tr.ApplyUpdates(updatesOf("Inventory", starFacts(100_000+i, 1), 1)); err != nil {
			t.Fatal(err)
		}
		checkBuffersReleased(t, tr, "after a single-tuple insert")
		if got := pathBufSizes(tr, "Inventory"); got < 1 || got > small {
			t.Fatalf("single-tuple call %d after the load left a path buffer sized %d, want 1..%d", i, got, small)
		}
	}

	// (b) 50 000 tuples in, at most starLocns*starDates groups one node
	// up and one group at the root.
	big, err := tr.DeltaFor("Inventory", updatesOf("Inventory", starFacts(200_000, 50_000), 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ApplyDelta("Inventory", big); err != nil {
		t.Fatal(err)
	}
	checkBuffersReleased(t, tr, "after a 50 000-tuple delta")
	if err := tr.ApplyUpdates(updatesOf("Inventory", starFacts(300_000, 1), 1)); err != nil {
		t.Fatal(err)
	}
	if got := pathBufSizes(tr, "Inventory"); got > small {
		t.Fatalf("the call after a 50 000-tuple delta ran on a buffer sized %d", got)
	}
}

// TestBuffersAreRecycled: equal-sized deltas refill the same maps, a
// delta far from the buffer's size replaces it — in both directions.
func TestBuffersAreRecycled(t *testing.T) {
	tr := starTree[int64](t, ring.Ints{}, nil)
	if err := tr.Init(starDims()); err != nil {
		t.Fatal(err)
	}
	anchor := tr.sources["Inventory"].anchor
	apply := func(s, n int) *relation.Map[int64] {
		t.Helper()
		if err := tr.ApplyUpdates(updatesOf("Inventory", starFacts(s, n), 1)); err != nil {
			t.Fatal(err)
		}
		checkBuffersReleased(t, tr, "after an insert")
		return anchor.buf.m
	}
	first := apply(0, 500)
	if first == nil || anchor.buf.size != 500 {
		t.Fatalf("a 500-tuple delta left the anchor buffer %v sized %d", first, anchor.buf.size)
	}
	if apply(500, 480) != first || apply(1000, 520) != first {
		t.Fatal("a similar-sized delta did not refill the anchor's buffer")
	}
	small := apply(2000, 1)
	if small == first || anchor.buf.size != 1 {
		t.Fatalf("a single-tuple delta reused a buffer sized for 520 (now %d)", anchor.buf.size)
	}
	if apply(2001, 2) != small {
		t.Fatal("a two-tuple delta did not refill the single-tuple buffer")
	}
	if apply(3000, 500) == small {
		t.Fatal("a 500-tuple delta grew a single-tuple buffer instead of replacing it")
	}
}

func updatesOf(rel string, tuples []value.Tuple, mult int) []Update {
	ups := make([]Update, len(tuples))
	for i, tp := range tuples {
		ups[i] = Update{Rel: rel, Tuple: tp, Mult: mult}
	}
	return ups
}

// TestRecycledBuffersMatchFreshMaps: alternating 500-tuple Inventory
// deltas (inserts, later deletes of them) and two-tuple Weather replaces
// on the shared upper nodes leave a recycling tree bit-identical after
// every call to a tree whose buffers are thrown away before each call,
// so every step fills a fresh map.
func TestRecycledBuffersMatchFreshMaps(t *testing.T) {
	recycled, fresh := starCovarTree(t), starCovarTree(t)
	for _, tr := range []*Tree[*ring.RangedCovar]{recycled, fresh} {
		if err := tr.Init(starDims()); err != nil {
			t.Fatal(err)
		}
	}
	rnd := rand.New(rand.NewSource(5))
	weather := starDims()["Weather"]
	step := func(ctx string, ups []Update) {
		t.Helper()
		eachBuf(fresh, func(_ string, b *deltaBuf[*ring.RangedCovar]) { *b = deltaBuf[*ring.RangedCovar]{} })
		for _, tr := range []*Tree[*ring.RangedCovar]{recycled, fresh} {
			if err := tr.ApplyUpdates(ups); err != nil {
				t.Fatal(err)
			}
		}
		checkBuffersReleased(t, recycled, ctx)
		if got, want := treeState(recycled), treeState(fresh); got != want {
			t.Fatalf("%s: the recycling tree diverged\nrecycled:\n%s\nfresh maps:\n%s", ctx, got, want)
		}
	}
	for round := 0; round < 8; round++ {
		step("inventory insert", updatesOf("Inventory", starFacts(round*500, 500), 1))
		w := rnd.Intn(len(weather))
		next := value.T(weather[w][0], weather[w][1], rnd.Intn(20))
		step("weather replace", []Update{{Rel: "Weather", Tuple: weather[w], Mult: -1}, {Rel: "Weather", Tuple: next, Mult: 1}})
		weather[w] = next
		if round%2 == 1 {
			step("inventory delete", updatesOf("Inventory", starFacts((round-1)*500, 500), -1))
		}
	}
	verifyTreeIndexes(t, recycled, "recycled")
}

// BenchmarkApplySingleAfterBulk is the per-call floor: single-tuple
// insert/delete pairs against a tree that has just bulk-loaded 100 000
// facts. The step buffers must follow the delta, not the load.
func BenchmarkApplySingleAfterBulk(b *testing.B) {
	tr := starCovarTree(b)
	data := starDims()
	data["Inventory"] = starFacts(0, 100_000)
	if err := tr.Init(data); err != nil {
		b.Fatal(err)
	}
	tup := starFacts(100_000, 1)
	ins, _ := tr.DeltaFor("Inventory", updatesOf("Inventory", tup, 1))
	del, _ := tr.DeltaFor("Inventory", updatesOf("Inventory", tup, -1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := ins
		if i%2 == 1 {
			d = del
		}
		if err := tr.ApplyDelta("Inventory", d); err != nil {
			b.Fatal(err)
		}
	}
}
