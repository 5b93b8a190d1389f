package relation

import (
	"math/rand"
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
)

// pureRing hides a ring's Scratch/FMA extensions behind a plain
// ring.Ring interface: type assertions in Join/Aggregate fail against
// it, forcing the pure Add/Mul path. Comparing both paths on the same
// inputs pins the merge contract at the relation layer: the fused
// scratch path must produce bit-identical relations.
type pureRing[V any] struct{ r ring.Ring[V] }

func (p pureRing[V]) Zero() V         { return p.r.Zero() }
func (p pureRing[V]) One() V          { return p.r.One() }
func (p pureRing[V]) Add(a, b V) V    { return p.r.Add(a, b) }
func (p pureRing[V]) Mul(a, b V) V    { return p.r.Mul(a, b) }
func (p pureRing[V]) Neg(a V) V       { return p.r.Neg(a) }
func (p pureRing[V]) IsZero(a V) bool { return p.r.IsZero(a) }

func randCovarRelation(rnd *rand.Rand, r ring.CovarRing, schema value.Schema, n int) *Map[*ring.Covar] {
	m := New[*ring.Covar](schema)
	for i := 0; i < n; i++ {
		t := make(value.Tuple, schema.Len())
		for j := range t {
			t[j] = value.Int(int64(rnd.Intn(4)))
		}
		c := r.One()
		c.C = float64(rnd.Intn(7) - 3)
		for k := range c.S {
			c.S[k] = float64(rnd.Intn(7) - 3)
		}
		for k := range c.Q {
			c.Q[k] = float64(rnd.Intn(7) - 3)
		}
		m.Merge(r, t, c)
	}
	return m
}

// TestJoinAggregateFusedMatchesPure joins and aggregates random
// covar-payload relations through both the fused (Scratch/FMA) and the
// pure path and requires bit-identical results. Integer-valued data
// keeps float sums exact, so even the float components must match
// exactly.
func TestJoinAggregateFusedMatchesPure(t *testing.T) {
	cr := ring.NewCovarRing(3)
	pure := pureRing[*ring.Covar]{r: cr}
	left := value.NewSchema("A", "B")
	right := value.NewSchema("A", "C")
	eq := func(a, b *ring.Covar) bool { return a.Equal(b) }
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		l := randCovarRelation(rnd, cr, left, 2+rnd.Intn(20))
		r := randCovarRelation(rnd, cr, right, 2+rnd.Intn(20))

		fused := Join[*ring.Covar](cr, l, r)
		plain := Join[*ring.Covar](pure, l, r)
		if !fused.Equal(plain, eq) {
			t.Fatalf("fused join differs from pure join:\n%v\nvs\n%v", fused, plain)
		}

		lift := cr.Lift(0)
		aggF := Aggregate[*ring.Covar](cr, fused, value.NewSchema("A"), "B", lift)
		aggP := Aggregate[*ring.Covar](pure, plain, value.NewSchema("A"), "B", lift)
		if !aggF.Equal(aggP, eq) {
			t.Fatalf("fused aggregate differs from pure aggregate:\n%v\nvs\n%v", aggF, aggP)
		}

		// The fused step folds through FMA (unlifted) and AddInto (lifted);
		// behind the wrapper every fold is a pure Add.
		for _, liftAttr := range []string{"", "B"} {
			plan := PlanJoin(left, right)
			fusedPlan := plan.Then(PlanAggregate(plan.Out(), value.NewSchema("C"), liftAttr))
			var lf ring.Lift[*ring.Covar]
			if liftAttr != "" {
				lf = lift
			}
			stepF := Step[*ring.Covar](fusedPlan, cr, l, r, lf, nil)
			stepP := Step[*ring.Covar](fusedPlan, pure, l, r, lf, nil)
			if !stepF.Equal(stepP, eq) {
				t.Fatalf("fused step (lift %q) differs from the pure step:\n%v\nvs\n%v", liftAttr, stepF, stepP)
			}
		}

		// No-lift aggregation exercises the shared-payload copy-on-write.
		nlF := Aggregate[*ring.Covar](cr, fused, value.NewSchema("B"), "", nil)
		nlP := Aggregate[*ring.Covar](pure, plain, value.NewSchema("B"), "", nil)
		if !nlF.Equal(nlP, eq) {
			t.Fatalf("fused no-lift aggregate differs from pure:\n%v\nvs\n%v", nlF, nlP)
		}

		// The inputs must come out untouched by either path (the fused
		// accumulation may only ever mutate values it created).
		lAgain := Join[*ring.Covar](pure, l, r)
		if !lAgain.Equal(plain, eq) {
			t.Fatal("join inputs were mutated by a previous join")
		}
	}
}

// TestStepOwnsItsOutput pins ownership rule 1 for the fused step: every
// group's first product is a fresh value the output owns (no entry is
// flagged shared, no stored payload or backing array is an operand's),
// and the in-place folds that follow — the kernel's own, and a commit's
// after it — never reach an operand, One payloads included.
func TestStepOwnsItsOutput(t *testing.T) {
	cr := ring.NewCovarRing(2)
	sAB, sBC := value.NewSchema("A", "B"), value.NewSchema("B", "C")
	plan := PlanJoin(sAB, sBC)
	rnd := rand.New(rand.NewSource(11))
	left, right := randCovarRelation(rnd, cr, sAB, 12), randCovarRelation(rnd, cr, sBC, 12)
	left.Set(value.T(9, 1), cr.One())
	right.Set(value.T(1, 9), cr.One())
	right.AddIndex(plan.RightIndexKey())
	operands := map[*ring.Covar]*ring.Covar{}
	arrays := map[*float64]bool{}
	for _, m := range []*Map[*ring.Covar]{left, right} {
		m.Each(func(_ value.Tuple, p *ring.Covar) {
			operands[p] = p.Clone()
			arrays[&p.S[0]] = true
		})
	}
	for _, liftAttr := range []string{"", "A"} {
		var lift ring.Lift[*ring.Covar]
		if liftAttr != "" {
			lift = cr.Lift(0)
		}
		fused := plan.Then(PlanAggregate(plan.Out(), value.NewSchema("C"), liftAttr))
		out := Step[*ring.Covar](fused, cr, left, right, lift, nil)
		if out.Len() == 0 || out.Len() >= left.Len()*right.Len() {
			t.Fatalf("fixture groups nothing: %d groups", out.Len())
		}
		for _, e := range out.data {
			if e.shared {
				t.Fatalf("lift %q: group %v is flagged shared; its first product should be owned", liftAttr, e.tuple)
			}
			if operands[e.payload] != nil || arrays[&e.payload.S[0]] {
				t.Fatalf("lift %q: group %v stores an operand's payload", liftAttr, e.tuple)
			}
		}
		// A commit takes the groups over and folds into them in place.
		view := New[*ring.Covar](out.schema)
		view.Absorb(cr, out)
		view.Absorb(cr, Step[*ring.Covar](fused, cr, left, right, lift, nil))
		for p, was := range operands {
			if !p.Equal(was) {
				t.Fatalf("lift %q: an operand payload was written: %v, was %v", liftAttr, p, was)
			}
		}
	}
}

// covarOf builds a degree-1 payload (c, [s], [q]).
func covarOf(r ring.CovarRing, c, s, q float64) *ring.Covar {
	v := r.One()
	v.C, v.S[0], v.Q[0] = c, s, q
	return v
}

// TestMergeOwnsWhatItStores pins the ownership rule of the commit path:
// a payload inserted from the caller stays the caller's (flagged
// shared, replaced on the first hit), every later hit folds into the
// map's own value in place, the addends are never written, and the
// contents equal the pure-Add map's throughout — for Merge and MergeAll
// alike.
func TestMergeOwnsWhatItStores(t *testing.T) {
	cr := ring.NewCovarRing(1)
	pure := pureRing[*ring.Covar]{r: cr}
	eq := func(a, b *ring.Covar) bool { return a.Equal(b) }
	schema := value.NewSchema("A")
	key := value.T(1)
	one := covarOf(cr, 1, 2, 4) // stands for a cached constant such as view.Tree's ±1
	oneCopy := one.Clone()

	for name, merge := range map[string]func(m *Map[*ring.Covar], r ring.Ring[*ring.Covar], p *ring.Covar){
		"Merge": func(m *Map[*ring.Covar], r ring.Ring[*ring.Covar], p *ring.Covar) { m.Merge(r, key, p) },
		"MergeAll": func(m *Map[*ring.Covar], r ring.Ring[*ring.Covar], p *ring.Covar) {
			d := New[*ring.Covar](schema)
			d.Set(key, p)
			m.MergeAll(r, d)
		},
	} {
		t.Run(name, func(t *testing.T) {
			owned, ref := New[*ring.Covar](schema), New[*ring.Covar](schema)
			merge(owned, cr, one)
			merge(ref, pure, one)
			if got, _ := owned.Get(key); got != one {
				t.Fatal("first insert did not store the caller's payload as is")
			}
			merge(owned, cr, one) // copy-on-write: the map now owns a fresh sum
			merge(ref, pure, one)
			mine, _ := owned.Get(key)
			if mine == one {
				t.Fatal("first hit folded into the caller's payload")
			}
			for i := 0; i < 5; i++ {
				merge(owned, cr, one)
				merge(ref, pure, one)
				if got, _ := owned.Get(key); got != mine {
					t.Fatalf("hit %d replaced a payload the map owns instead of folding in place", i+3)
				}
				if !owned.Equal(ref, eq) {
					t.Fatalf("hit %d: in-place map %v differs from pure map %v", i+3, owned, ref)
				}
			}
			if !one.Equal(oneCopy) {
				t.Fatalf("the caller's payload was written: %v, want %v", one, oneCopy)
			}
			// Annihilate and come back: the recycled entry must not carry
			// ownership of anything over.
			neg := cr.Neg(covarOf(cr, 7, 14, 28))
			merge(owned, cr, neg)
			merge(ref, pure, neg)
			if owned.Len() != 0 || ref.Len() != 0 {
				t.Fatalf("annihilation left %d / %d entries", owned.Len(), ref.Len())
			}
			merge(owned, cr, one)
			merge(owned, cr, one)
			if !one.Equal(oneCopy) {
				t.Fatal("re-inserting after annihilation wrote the caller's payload")
			}
		})
	}
}

// TestAbsorbTakesOverWhatItsArgumentOwned: Absorb is the commit step,
// whose delta views are dropped once merged. A payload the delta owned
// (a fresh join product) becomes the map's at once — the very next hit
// folds into it in place, no copy — while one the delta only aliased
// (flagged shared) is still replaced, never written; contents equal the
// pure-Add map's throughout.
func TestAbsorbTakesOverWhatItsArgumentOwned(t *testing.T) {
	cr := ring.NewCovarRing(1)
	pure := pureRing[*ring.Covar]{r: cr}
	eq := func(a, b *ring.Covar) bool { return a.Equal(b) }
	schema := value.NewSchema("A")
	ownedKey, aliasKey := value.T(1), value.T(2)
	constant := covarOf(cr, 1, 2, 4)
	constantCopy := constant.Clone()
	delta := func() *Map[*ring.Covar] {
		d := New[*ring.Covar](schema)
		d.Merge(cr, ownedKey, covarOf(cr, 1, 1, 1))
		d.Merge(cr, ownedKey, covarOf(cr, 1, 1, 1)) // the sum is d's own
		d.Set(aliasKey, constant)                   // flagged shared
		return d
	}
	m, ref := New[*ring.Covar](schema), New[*ring.Covar](schema)
	first := delta()
	taken, _ := first.Get(ownedKey)
	m.Absorb(cr, first)
	ref.MergeAll(pure, delta())
	for i := 0; i < 3; i++ {
		m.Absorb(cr, delta())
		ref.MergeAll(pure, delta())
		if got, _ := m.Get(ownedKey); got != taken {
			t.Fatalf("hit %d copied a payload Absorb had taken over", i+1)
		}
		if got, _ := m.Get(aliasKey); got == constant {
			t.Fatalf("hit %d folded into a payload the delta only aliased", i+1)
		}
		if !m.Equal(ref, eq) {
			t.Fatalf("hit %d: absorbed map %v differs from pure map %v", i+1, m, ref)
		}
	}
	if !constant.Equal(constantCopy) {
		t.Fatalf("an aliased payload was written: %v, want %v", constant, constantCopy)
	}
}

// TestCloneIsAStableSnapshot: Clone shares payloads, so it flags both
// sides — merging into either map afterwards must leave the other's
// payloads bit-identical (a published TableModel is such a clone).
func TestCloneIsAStableSnapshot(t *testing.T) {
	cr := ring.NewCovarRing(1)
	schema := value.NewSchema("A")
	m := New[*ring.Covar](schema)
	for k := 0; k < 3; k++ {
		m.Merge(cr, value.T(k), covarOf(cr, 1, 1, 1))
		m.Merge(cr, value.T(k), covarOf(cr, 1, 2, 4)) // now owned by m
	}
	want := m.String()
	delta := New[*ring.Covar](schema)
	delta.Set(value.T(1), covarOf(cr, 5, 5, 5))

	snap := m.Clone()
	m.MergeAll(cr, delta)
	m.MergeAll(cr, delta)
	if got := snap.String(); got != want {
		t.Fatalf("clone changed when its source was merged into:\n%s\nwant\n%s", got, want)
	}
	after := m.String()
	snap.MergeAll(cr, delta)
	snap.MergeAll(cr, delta)
	if got := m.String(); got != after {
		t.Fatalf("source changed when its clone was merged into:\n%s\nwant\n%s", got, after)
	}
}

// TestUnliftedAggregateFlagsBothSides: a no-lift Aggregate stores its
// input's payloads as they are. The input may be long-lived state that
// owns them (a root view aggregated into the query result), so both
// entries must copy on write, whichever is merged into first.
func TestUnliftedAggregateFlagsBothSides(t *testing.T) {
	cr := ring.NewCovarRing(1)
	in := New[*ring.Covar](value.NewSchema("A", "B"))
	for k := 0; k < 3; k++ {
		in.Merge(cr, value.T(k, k), covarOf(cr, 1, 1, 1))
		in.Merge(cr, value.T(k, k), covarOf(cr, 1, 2, 4)) // owned by in
	}
	out := Aggregate[*ring.Covar](cr, in, value.NewSchema("A"), "", nil)
	wantOut := out.String()

	dIn := New[*ring.Covar](in.Schema())
	dIn.Set(value.T(1, 1), covarOf(cr, 3, 3, 3))
	in.MergeAll(cr, dIn)
	in.MergeAll(cr, dIn)
	if got := out.String(); got != wantOut {
		t.Fatalf("aggregate changed when its input was merged into:\n%s\nwant\n%s", got, wantOut)
	}
	wantIn := in.String()
	dOut := New[*ring.Covar](out.Schema())
	dOut.Set(value.T(2), covarOf(cr, 3, 3, 3))
	out.MergeAll(cr, dOut)
	out.MergeAll(cr, dOut)
	if got := in.String(); got != wantIn {
		t.Fatalf("input changed when its aggregate was merged into:\n%s\nwant\n%s", got, wantIn)
	}
}
