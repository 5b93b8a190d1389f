package relation

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
)

// checkIndexConsistency asserts every registered index of m holds
// exactly the live entries of m: each entry appears exactly once under
// its projected key, and total postings equal Len. This is the
// invariant incremental maintenance (Merge/MergeAll/Set) must
// preserve through inserts, in-place updates, and annihilations.
func checkIndexConsistency[V any](t *testing.T, m *Map[V]) {
	t.Helper()
	for _, ix := range m.indexes {
		if !ix.built {
			continue
		}
		total := 0
		for key, p := range ix.data {
			if len(p.entries) == 0 {
				t.Fatalf("index %v holds empty bucket %q", ix.proj, key)
			}
			total += len(p.entries)
			for i, pe := range p.entries {
				if got, ok := ix.pos[pe]; !ok || got.i != i || got.p != p {
					t.Fatalf("index %v: entry %v at slot %d has pos %+v (present=%v)", ix.proj, pe.tuple, i, got, ok)
				}
			}
		}
		if total != m.Len() {
			t.Fatalf("index %v holds %d postings, map holds %d entries", ix.proj, total, m.Len())
		}
		if len(ix.pos) != total {
			t.Fatalf("index %v position map holds %d entries, postings hold %d", ix.proj, len(ix.pos), total)
		}
		var kbuf []byte
		for _, e := range m.data {
			kbuf = e.tuple.AppendEncodeProject(kbuf[:0], ix.proj)
			found := 0
			for _, pe := range ix.lookup(kbuf) {
				if pe == e {
					found++
				}
			}
			if found != 1 {
				t.Fatalf("index %v lists entry %v %d times, want 1", ix.proj, e.tuple, found)
			}
		}
	}
}

// probeRing bundles one ring kind with a payload generator for the
// equivalence property test. Generators produce integer-valued payloads
// so float arithmetic stays exact and "bit-identical" is literal.
type probeRing[V any] struct {
	ring ring.Ring[V]
	gen  func(rnd *rand.Rand) V
	// genRight overrides gen for the right relation's payloads; rings
	// with structured products (ranged COVAR multiplies only adjacent
	// attribute ranges) need side-specific payloads. nil means gen.
	genRight func(rnd *rand.Rand) V
	// lift is applied by the fused-step checks to an attribute of either
	// operand; it must compose with a product of one gen and one
	// genRight payload.
	lift ring.Lift[V]
}

// naiveStep is the fused step's oracle, sharing no code with it: a
// nested loop over both operands, the left-first product of every pair
// agreeing on the common attributes, the lift, and a Merge per pair
// into the group — pure ring operations only.
func naiveStep[V any](r ring.Ring[V], left, right *Map[V], group value.Schema, liftAttr string, lift ring.Lift[V]) *Map[V] {
	r = pureRing[V]{r}
	joined := left.schema.Union(right.schema)
	common := left.schema.Intersect(right.schema)
	lc, rc := left.schema.MustProject(common), right.schema.MustProject(common)
	extra := right.schema.MustProject(right.schema.Minus(left.schema))
	proj := joined.MustProject(group)
	out := New[V](group)
	left.Each(func(lt value.Tuple, lp V) {
		right.Each(func(rt value.Tuple, rp V) {
			if !lt.Project(lc).Equal(rt.Project(rc)) {
				return
			}
			jt := append(append(value.Tuple(nil), lt...), rt.Project(extra)...)
			p := r.Mul(lp, rp)
			if liftAttr != "" {
				p = r.Mul(p, lift(jt[joined.Index(liftAttr)]))
			}
			out.Merge(r, jt.Project(proj), p)
		})
	})
	return out
}

// checkFusedStep compares Step under every fused plan of the (A,B)⋈(B,C)
// join — group keys from the left only, the right only, both, the
// common attribute, none, all; the lift on either side, on the common
// attribute, absent — against AggregateWith(JoinWith(...)) and the
// naive oracle, bit for bit, in both orientations (as given: the index
// probe; unindexed clones: build-and-scan) and into a recycled buffer.
func checkFusedStep[V any](t *testing.T, pr probeRing[V], plan *JoinPlan, left, right *Map[V]) {
	t.Helper()
	r := pr.ring
	eq := func(a, b V) bool { return reflect.DeepEqual(a, b) }
	scanL, scanR := left.Clone(), right.Clone() // clones carry no index
	joined := JoinWith(plan, r, left, right)
	for _, group := range [][]string{{"A"}, {"C"}, {"A", "C"}, {"B"}, {}, {"A", "B", "C"}} {
		for _, liftAttr := range []string{"", "A", "B", "C"} {
			var lift ring.Lift[V]
			if liftAttr != "" {
				lift = pr.lift
			}
			gs := value.NewSchema(group...)
			agg := PlanAggregate(plan.Out(), gs, liftAttr)
			fused := plan.Then(agg)
			want := AggregateWith(agg, r, joined, lift, nil)
			if naive := naiveStep(r, left, right, gs, liftAttr, lift); !want.Equal(naive, eq) {
				t.Fatalf("group %v lift %q: two-step reference diverged from the naive oracle\ntwo-step: %v\nnaive:    %v", group, liftAttr, want, naive)
			}
			for _, empty := range []*Map[V]{
				Step(fused, r, New[V](left.schema), right, lift, nil),
				Step(fused, r, left, New[V](right.schema), lift, nil),
			} {
				if empty.Len() != 0 || !empty.schema.Equal(gs) {
					t.Fatalf("group %v lift %q: step with an empty operand produced %v", group, liftAttr, empty)
				}
			}
			buf := New[V](gs)
			for _, c := range []struct {
				name        string
				left, right *Map[V]
				out         *Map[V]
			}{
				{"probe", left, right, nil},
				{"scan", scanL, scanR, nil},
				{"buffer", left, right, buf},
				{"recycled buffer", scanL, scanR, buf},
			} {
				if c.out != nil {
					c.out.Reset()
				}
				got := Step(fused, r, c.left, c.right, lift, c.out)
				if !got.Equal(want, eq) {
					t.Fatalf("group %v lift %q (%s): fused step diverged from AggregateWith(JoinWith)\nfused: %v\nwant:  %v", group, liftAttr, c.name, got, want)
				}
				got.Each(func(tp value.Tuple, p V) {
					if r.IsZero(p) {
						t.Fatalf("group %v lift %q (%s): stored a ring zero at %v", group, liftAttr, c.name, tp)
					}
				})
			}
		}
	}
}

// runProbeEquivalence drives the property: for random indexed relations
// and random deltas (inserts, updates, and full annihilations merged
// through the incremental index maintenance), JoinProbeWith equals
// JoinWith bit-for-bit, in both probe orientations, and the indexes
// stay consistent with the primary map throughout.
func runProbeEquivalence[V any](t *testing.T, pr probeRing[V]) {
	t.Helper()
	r := pr.ring
	sAB := value.NewSchema("A", "B")
	sBC := value.NewSchema("B", "C")
	plan := PlanJoin(sAB, sBC)
	eq := func(a, b V) bool { return reflect.DeepEqual(a, b) }
	rnd := rand.New(rand.NewSource(7))
	genRight := pr.genRight
	if genRight == nil {
		genRight = pr.gen
	}

	fill := func(m *Map[V], n int, gen func(rnd *rand.Rand) V) {
		for i := 0; i < n; i++ {
			tp := value.T(rnd.Intn(5), rnd.Intn(5))
			m.Merge(r, tp, gen(rnd))
		}
	}
	annihilate := func(m *Map[V], frac float64) {
		// Cancel a fraction of live entries exactly, exercising the
		// posting-removal path (payload reaches the ring zero).
		var doomed []value.Tuple
		var payloads []V
		m.Each(func(tp value.Tuple, p V) {
			if rnd.Float64() < frac {
				doomed = append(doomed, tp)
				payloads = append(payloads, p)
			}
		})
		for i, tp := range doomed {
			m.Merge(r, tp, r.Neg(payloads[i]))
		}
	}

	for iter := 0; iter < 60; iter++ {
		// Uneven sizes so both probe orientations (index on the left,
		// index on the right) come up across iterations.
		left, right := New[V](sAB), New[V](sBC)
		left.AddIndex(plan.LeftIndexKey())
		right.AddIndex(plan.RightIndexKey())
		if iter%2 == 0 {
			// Materialize up front so the fills and annihilations below
			// exercise incremental maintenance; odd iterations leave the
			// lazy build to the first probe inside JoinProbeWith.
			left.indexOn(plan.LeftIndexKey()).ensure(left)
			right.indexOn(plan.RightIndexKey()).ensure(right)
		}
		fill(left, 1+rnd.Intn(40), pr.gen)
		fill(right, 1+rnd.Intn(40), genRight)
		annihilate(left, 0.3)
		annihilate(right, 0.3)
		fill(right, rnd.Intn(10), genRight) // reinsert over annihilated keys

		checkIndexConsistency(t, left)
		checkIndexConsistency(t, right)

		want := JoinWith(plan, r, left, right)
		got := JoinProbeWith(plan, r, left, right)
		if !got.Equal(want, eq) {
			t.Fatalf("iter %d: JoinProbeWith diverged from JoinWith\nprobe: %v\nscan:  %v", iter, got, want)
		}
		// The probe built any lazily pending index; it must be consistent
		// with the live entries too.
		checkIndexConsistency(t, left)
		checkIndexConsistency(t, right)
		if left.Len() != right.Len() {
			small, ix := left, right.indexOn(plan.RightIndexKey())
			if right.Len() < left.Len() {
				small, ix = right, left.indexOn(plan.LeftIndexKey())
			}
			if small.Len() > 0 && !ix.built {
				t.Fatalf("iter %d: the larger side's index was not probed", iter)
			}
		}
		if iter%6 == 0 {
			checkFusedStep(t, pr, plan, left, right)
		}
	}

	// Groups that cancel to the ring zero are dropped: two left tuples
	// with opposite payloads meet the same right tuples under group C.
	left, right := New[V](sAB), New[V](sBC)
	right.AddIndex(plan.RightIndexKey())
	p := pr.gen(rnd)
	left.Merge(r, value.T(1, 1), p)
	left.Merge(r, value.T(2, 1), r.Neg(p))
	for c := 0; c < 3; c++ {
		right.Merge(r, value.T(1, c), genRight(rnd))
	}
	fused := plan.Then(PlanAggregate(plan.Out(), value.NewSchema("C"), ""))
	if got := Step(fused, r, left, right, nil, nil); got.Len() != 0 {
		t.Fatalf("cancelling groups survived the fused step: %v", got)
	}
	checkFusedStep(t, pr, plan, left, right)
}

// TestQuickProbeEquivalenceAllKinds runs the probe/scan equivalence
// property over the ring kinds the engines instantiate — Z counts, float
// sums, the covar engine's ranged COVAR, the mixed-feature RelCovar, and
// the (non-commutative) relational ring. Ranged COVAR runs twice, each
// also behind a wrapper hiding its in-place extensions: on leaf
// payloads of one attribute per side ("rangedcovar"), and with a left
// operand of two attributes, as interior views multiply ("covar").
func TestQuickProbeEquivalenceAllKinds(t *testing.T) {
	t.Run("ints", func(t *testing.T) {
		runProbeEquivalence(t, probeRing[int64]{ring: ring.Ints{}, gen: func(rnd *rand.Rand) int64 {
			return int64(rnd.Intn(9) - 4)
		}, lift: func(v value.Value) int64 { return v.Int() - 2 }})
	})
	t.Run("floats", func(t *testing.T) {
		runProbeEquivalence(t, probeRing[float64]{ring: ring.Floats{}, gen: func(rnd *rand.Rand) float64 {
			return float64(rnd.Intn(9) - 4)
		}, lift: func(v value.Value) float64 { return float64(v.Int()) - 2 }})
	})
	for _, c := range []struct {
		name  string
		width int
	}{{"covar", 2}, {"rangedcovar", 1}} {
		t.Run(c.name, func(t *testing.T) {
			runProbeEquivalence(t, rangedProbeRing(c.width))
		})
		t.Run(c.name+"-pure", func(t *testing.T) {
			// The ring behind the wrapper hiding Scratch and FMA: the fused
			// kernel's in-place folds against the pure Add/Mul path.
			pr := rangedProbeRing(c.width)
			pr.ring = pureRing[*ring.RangedCovar]{pr.ring}
			runProbeEquivalence(t, pr)
		})
	}
	t.Run("relcovar", func(t *testing.T) {
		r := ring.NewRelCovarRing(3)
		lifts := []ring.Lift[*ring.RelCovar]{r.LiftContinuous(0), r.LiftCategorical(1)}
		runProbeEquivalence(t, probeRing[*ring.RelCovar]{ring: r, gen: func(rnd *rand.Rand) *ring.RelCovar {
			p := lifts[rnd.Intn(2)](value.Int(int64(rnd.Intn(4))))
			if rnd.Intn(2) == 0 {
				return r.Neg(p)
			}
			return p
		}, lift: r.LiftCategorical(2)})
	})
	t.Run("relational", func(t *testing.T) {
		r := ring.Relational{}
		runProbeEquivalence(t, probeRing[ring.RelVal]{ring: r, gen: func(rnd *rand.Rand) ring.RelVal {
			return ring.RelSingle(value.T(rnd.Intn(4)), float64(rnd.Intn(5)-2))
		}, lift: func(v value.Value) ring.RelVal { return ring.RelSingle(value.Tuple{v}, 1) }})
	})
}

// rangedProbeRing is the ranged COVAR kind of the equivalence property.
// Ranged payloads add only within one attribute range and multiply
// only across adjacent ranges (the view-tree product structure), so
// the left side lifts attributes [0, width), the right side attribute
// width, and the fused checks attribute width+1.
func rangedProbeRing(width int) probeRing[*ring.RangedCovar] {
	var r ring.RangedCovarRing
	lifted := func(start, n int) func(rnd *rand.Rand) *ring.RangedCovar {
		return func(rnd *rand.Rand) *ring.RangedCovar {
			p := r.One()
			for i := start; i < start+n; i++ {
				p = r.Mul(p, r.Lift(i)(value.Int(int64(rnd.Intn(5)-2))))
			}
			if rnd.Intn(2) == 0 {
				return r.Neg(p)
			}
			return p
		}
	}
	return probeRing[*ring.RangedCovar]{ring: r, gen: lifted(0, width), genRight: lifted(width, 1), lift: r.Lift(width + 1)}
}

// TestStepKeepsRelationalKeyOrientation: the relational ring's product
// concatenates keys, so a ⊗ b and b ⊗ a differ. Whichever side Step
// iterates — the smaller one, so both sizes are tried, probing and
// scanning — the payload is left ⊗ right (⊗ lift), and exchanging the
// operands exchanges the key order.
func TestStepKeepsRelationalKeyOrientation(t *testing.T) {
	r := ring.Relational{}
	sAB, sBC := value.NewSchema("A", "B"), value.NewSchema("B", "C")
	lift := func(v value.Value) ring.RelVal { return ring.RelSingle(value.T("g"), 1) }
	group := value.NewSchema("B")
	for _, sizes := range [][2]int{{1, 3}, {3, 1}, {2, 2}} {
		for _, indexed := range []bool{true, false} {
			left, right := New[ring.RelVal](sAB), New[ring.RelVal](sBC)
			for i := 0; i < sizes[0]; i++ {
				left.Merge(r, value.T(i, 7), ring.RelSingle(value.T("l"), 1))
			}
			for i := 0; i < sizes[1]; i++ {
				right.Merge(r, value.T(7, i), ring.RelSingle(value.T("r"), 1))
			}
			ab, ba := PlanJoin(sAB, sBC), PlanJoin(sBC, sAB)
			if indexed {
				left.AddIndex(ab.LeftIndexKey())
				right.AddIndex(ab.RightIndexKey())
			}
			n := float64(sizes[0] * sizes[1])
			for _, c := range []struct {
				got  *Map[ring.RelVal]
				want value.Tuple
			}{
				{Step(ab.Then(PlanAggregate(ab.Out(), group, "")), r, left, right, nil, nil), value.T("l", "r")},
				{Step(ba.Then(PlanAggregate(ba.Out(), group, "")), r, right, left, nil, nil), value.T("r", "l")},
				{Step(ab.Then(PlanAggregate(ab.Out(), group, "A")), r, left, right, lift, nil), value.T("l", "r", "g")},
				{Step(ba.Then(PlanAggregate(ba.Out(), group, "C")), r, right, left, lift, nil), value.T("r", "l", "g")},
			} {
				got, _ := c.got.Get(value.T(7))
				if want := ring.RelSingle(c.want, n); !reflect.DeepEqual(got, want) {
					t.Fatalf("sizes %v indexed %v: payload %v, want %v", sizes, indexed, got, want)
				}
			}
		}
	}
}

// TestJoinProbeFallsBackWithoutIndex: an unindexed large side must
// produce the same join through the build-and-scan fallback.
func TestJoinProbeFallsBackWithoutIndex(t *testing.T) {
	z := ring.Ints{}
	sAB := value.NewSchema("A", "B")
	sBC := value.NewSchema("B", "C")
	plan := PlanJoin(sAB, sBC)
	left, right := New[int64](sAB), New[int64](sBC)
	for i := 0; i < 20; i++ {
		left.Merge(z, value.T(i, i%3), 1)
		right.Merge(z, value.T(i%3, i), int64(i))
	}
	if left.IndexCount() != 0 || right.IndexCount() != 0 {
		t.Fatal("fixture should be unindexed")
	}
	got := JoinProbeWith(plan, z, left, right)
	want := JoinWith(plan, z, left, right)
	if !got.Equal(want, func(a, b int64) bool { return a == b }) {
		t.Fatalf("fallback diverged:\n%v\nvs\n%v", got, want)
	}
}

// TestAddIndexDedup: registering the same projection twice keeps one
// index; a different projection adds a second.
func TestAddIndexDedup(t *testing.T) {
	m := New[int64](value.NewSchema("A", "B"))
	m.AddIndex([]int{1})
	m.AddIndex([]int{1})
	if m.IndexCount() != 1 {
		t.Fatalf("IndexCount = %d after duplicate registration, want 1", m.IndexCount())
	}
	m.AddIndex([]int{0, 1})
	if m.IndexCount() != 2 {
		t.Fatalf("IndexCount = %d, want 2", m.IndexCount())
	}
}

// TestAddIndexBuildsFromContents: an index registered on a populated
// relation materializes from the live contents on first use and is
// consistent from then on.
func TestAddIndexBuildsFromContents(t *testing.T) {
	z := ring.Ints{}
	m := New[int64](value.NewSchema("A", "B"))
	for i := 0; i < 30; i++ {
		m.Merge(z, value.T(i, i%4), 1)
	}
	m.AddIndex([]int{1})
	m.indexOn([]int{1}).ensure(m)
	checkIndexConsistency(t, m)
	// Reset keeps the registration, empties the postings.
	m.Reset()
	if m.IndexCount() != 1 {
		t.Fatal("Reset dropped the index registration")
	}
	checkIndexConsistency(t, m)
	m.Merge(z, value.T(1, 2), 5)
	checkIndexConsistency(t, m)
}

// TestSetMaintainsIndexes: the Set path (snapshot restore) inserts
// postings like Merge does; replacing a payload leaves them untouched.
func TestSetMaintainsIndexes(t *testing.T) {
	m := New[int64](value.NewSchema("A"))
	m.AddIndex([]int{0})
	m.indexOn([]int{0}).ensure(m)
	m.Set(value.T(1), 10)
	m.Set(value.T(1), 20) // in-place replace, no index churn
	m.Set(value.T(2), 30)
	checkIndexConsistency(t, m)
	if got, _ := m.Get(value.T(1)); got != 20 {
		t.Fatalf("payload = %d, want 20", got)
	}
}

// TestAddIndexRejectsBadPositions documents the programming-error panic.
func TestAddIndexRejectsBadPositions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index position")
		}
	}()
	New[int64](value.NewSchema("A")).AddIndex([]int{3})
}

// TestProbeAsymptotics is a coarse guard on the point of the index: the
// work of a single-tuple probe against an indexed relation must not
// scale with the relation's size. It counts probed matches indirectly
// by asserting equal results while sizing the big side up 100x; the
// real latency guard is fivm's TestSingleTupleLatencyFlat.
func TestProbeAsymptotics(t *testing.T) {
	z := ring.Ints{}
	sAB := value.NewSchema("A", "B")
	sBC := value.NewSchema("B", "C")
	plan := PlanJoin(sAB, sBC)
	for _, n := range []int{100, 10_000} {
		big := New[int64](sBC)
		big.AddIndex(plan.RightIndexKey())
		for i := 0; i < n; i++ {
			big.Merge(z, value.T(i%50, i), 1)
		}
		delta := New[int64](sAB)
		delta.Merge(z, value.T(7, 13), 1)
		out := JoinProbeWith(plan, z, delta, big)
		// Key B=13 matches the n/50 tuples with that join key.
		if out.Len() != n/50 {
			t.Fatalf("n=%d: probe produced %d tuples, want %d", n, out.Len(), n/50)
		}
	}
}
