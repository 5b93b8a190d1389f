package relation

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
)

// pureRing hides a ring's Scratch/FMA extensions behind a plain
// ring.Ring interface: type assertions in Step fail against
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

// randRanged draws a payload of the covar engine's ring over [start,
// start+n) with small integer statistics, so float sums are exact: a
// lifted row of random values times a random nonzero count. n = 0
// draws a scalar.
func randRanged(rnd *rand.Rand, start, n int) *ring.RangedCovar {
	var r ring.RangedCovarRing
	p := r.One()
	p.C = float64(rnd.Intn(3) + 1)
	if rnd.Intn(2) == 0 {
		p.C = -p.C
	}
	for i := start; i < start+n; i++ {
		p = r.Mul(p, r.Lift(i)(value.Int(int64(rnd.Intn(7)-3))))
	}
	return p
}

// randRangedRelation fills n random tuples of schema with payloads over
// [start, start+width).
func randRangedRelation(rnd *rand.Rand, schema value.Schema, n, start, width int) *Map[*ring.RangedCovar] {
	m := New[*ring.RangedCovar](schema)
	for i := 0; i < n; i++ {
		t := make(value.Tuple, schema.Len())
		for j := range t {
			t[j] = value.Int(int64(rnd.Intn(4)))
		}
		m.Merge(ring.RangedCovarRing{}, t, randRanged(rnd, start, width))
	}
	return m
}

// backing returns the address of p's backing array, 0 for a scalar,
// which has none: two payloads sharing storage share it.
func backing(p *ring.RangedCovar) uintptr {
	return reflect.ValueOf(p).Elem().FieldByName("v").Pointer()
}

// TestJoinAggregateFusedMatchesPure joins and aggregates random
// covar-payload relations through both the fused (Scratch/FMA) and the
// pure path and requires bit-identical results. Integer-valued data
// keeps float sums exact, so even the float components must match
// exactly.
func TestJoinAggregateFusedMatchesPure(t *testing.T) {
	var cr ring.RangedCovarRing
	pure := pureRing[*ring.RangedCovar]{r: cr}
	left := value.NewSchema("A", "B")
	right := value.NewSchema("A", "C")
	eq := (*ring.RangedCovar).Equal
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		// Ranges as a view tree multiplies them: the left payloads cover
		// [0,2), the right ones [2,3), and the lift index 3.
		l := randRangedRelation(rnd, left, 2+rnd.Intn(20), 0, 2)
		r := randRangedRelation(rnd, right, 2+rnd.Intn(20), 2, 1)

		fused := Join[*ring.RangedCovar](cr, l, r)
		plain := Join[*ring.RangedCovar](pure, l, r)
		if !fused.Equal(plain, eq) {
			t.Fatalf("fused join differs from pure join:\n%v\nvs\n%v", fused, plain)
		}

		lift := cr.Lift(3)
		aggF := Aggregate[*ring.RangedCovar](cr, fused, value.NewSchema("A"), "B", lift)
		aggP := Aggregate[*ring.RangedCovar](pure, plain, value.NewSchema("A"), "B", lift)
		if !aggF.Equal(aggP, eq) {
			t.Fatalf("fused aggregate differs from pure aggregate:\n%v\nvs\n%v", aggF, aggP)
		}

		// The fused step folds through FMA (unlifted) and AddInto (lifted);
		// behind the wrapper every fold is a pure Add.
		for _, liftAttr := range []string{"", "B"} {
			plan := PlanStep([]value.Schema{left, right}, 0, value.NewSchema("C"), liftAttr)
			var lf ring.Lift[*ring.RangedCovar]
			if liftAttr != "" {
				lf = lift
			}
			parts := []*Map[*ring.RangedCovar]{l, r}
			stepF := Step[*ring.RangedCovar](plan, cr, parts, lf, nil)
			stepP := Step[*ring.RangedCovar](plan, pure, parts, lf, nil)
			if !stepF.Equal(stepP, eq) {
				t.Fatalf("fused step (lift %q) differs from the pure step:\n%v\nvs\n%v", liftAttr, stepF, stepP)
			}
		}

		// No-lift aggregation exercises the shared-payload copy-on-write.
		nlF := Aggregate[*ring.RangedCovar](cr, fused, value.NewSchema("B"), "", nil)
		nlP := Aggregate[*ring.RangedCovar](pure, plain, value.NewSchema("B"), "", nil)
		if !nlF.Equal(nlP, eq) {
			t.Fatalf("fused no-lift aggregate differs from pure:\n%v\nvs\n%v", nlF, nlP)
		}

		// The inputs must come out untouched by either path (the fused
		// accumulation may only ever mutate values it created).
		lAgain := Join[*ring.RangedCovar](pure, l, r)
		if !lAgain.Equal(plain, eq) {
			t.Fatal("join inputs were mutated by a previous join")
		}
	}
}

// TestStepOwnsItsOutput pins ownership rule 1 for the fused step: every
// group's first product is a fresh value the output owns (no entry is
// flagged shared, no stored payload or backing array is an operand's),
// and the in-place folds that follow — the kernel's own, and a commit's
// after it — never reach an operand, One payloads included. The left
// payloads cover [0,1) and the right ones are scalars, so every group
// adds products of one range; each One sits where it meets only
// payloads of its own group's range.
func TestStepOwnsItsOutput(t *testing.T) {
	var cr ring.RangedCovarRing
	sAB, sBC := value.NewSchema("A", "B"), value.NewSchema("B", "C")
	rnd := rand.New(rand.NewSource(11))
	left, right := randRangedRelation(rnd, sAB, 12, 0, 1), randRangedRelation(rnd, sBC, 12, 0, 0)
	left.Set(value.T(9, 5), cr.One())  // × right's One: group C=8
	right.Set(value.T(5, 8), cr.One()) //
	right.Set(value.T(1, 9), cr.One()) // × left's B=1 payloads: group C=9
	schemas := []value.Schema{sAB, sBC}
	right.AddIndex(PlanStep(schemas, 0, value.NewSchema(), "").IndexKey(1))
	operands := map[*ring.RangedCovar]*ring.RangedCovar{}
	arrays := map[uintptr]bool{}
	for _, m := range []*Map[*ring.RangedCovar]{left, right} {
		m.Each(func(_ value.Tuple, p *ring.RangedCovar) {
			operands[p] = p.Clone()
			if a := backing(p); a != 0 {
				arrays[a] = true
			}
		})
	}
	for _, liftAttr := range []string{"", "A"} {
		var lift ring.Lift[*ring.RangedCovar]
		if liftAttr != "" {
			lift = cr.Lift(1)
		}
		plan := PlanStep(schemas, 0, value.NewSchema("C"), liftAttr)
		parts := []*Map[*ring.RangedCovar]{left, right}
		out := Step[*ring.RangedCovar](plan, cr, parts, lift, nil)
		if out.Len() == 0 || out.Len() >= left.Len()*right.Len() {
			t.Fatalf("fixture groups nothing: %d groups", out.Len())
		}
		for _, e := range out.data {
			if e.shared {
				t.Fatalf("lift %q: group %v is flagged shared; its first product should be owned", liftAttr, e.tuple)
			}
			if operands[e.payload] != nil || arrays[backing(e.payload)] {
				t.Fatalf("lift %q: group %v stores an operand's payload", liftAttr, e.tuple)
			}
		}
		// A commit takes the groups over and folds into them in place.
		view := New[*ring.RangedCovar](out.schema)
		view.Absorb(cr, out)
		view.Absorb(cr, Step[*ring.RangedCovar](plan, cr, parts, lift, nil))
		for p, was := range operands {
			if !p.Equal(was) {
				t.Fatalf("lift %q: an operand payload was written: %v, was %v", liftAttr, p, was)
			}
		}
	}
}

// covarOf builds the payload (c, [c·x], [c·x²]) over [0,1): c rows of
// the value x.
func covarOf(c, x float64) *ring.RangedCovar {
	var r ring.RangedCovarRing
	p := r.One()
	p.C = c
	return r.Mul(p, r.Lift(0)(value.Float(x)))
}

// TestMergeOwnsWhatItStores pins the ownership rule of the commit path:
// a payload inserted from the caller stays the caller's (flagged
// shared, replaced on the first hit), every later hit folds into the
// map's own value in place, the addends are never written, and the
// contents equal the pure-Add map's throughout — for Merge and MergeAll
// alike.
func TestMergeOwnsWhatItStores(t *testing.T) {
	var cr ring.RangedCovarRing
	pure := pureRing[*ring.RangedCovar]{r: cr}
	eq := (*ring.RangedCovar).Equal
	schema := value.NewSchema("A")
	key := value.T(1)
	one := covarOf(1, 2) // stands for a cached constant such as view.Tree's ±1
	oneCopy := one.Clone()

	for name, merge := range map[string]func(m *Map[*ring.RangedCovar], r ring.Ring[*ring.RangedCovar], p *ring.RangedCovar){
		"Merge": func(m *Map[*ring.RangedCovar], r ring.Ring[*ring.RangedCovar], p *ring.RangedCovar) {
			m.Merge(r, key, p)
		},
		"MergeAll": func(m *Map[*ring.RangedCovar], r ring.Ring[*ring.RangedCovar], p *ring.RangedCovar) {
			d := New[*ring.RangedCovar](schema)
			d.Set(key, p)
			m.MergeAll(r, d)
		},
	} {
		t.Run(name, func(t *testing.T) {
			owned, ref := New[*ring.RangedCovar](schema), New[*ring.RangedCovar](schema)
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
			neg := cr.Neg(covarOf(7, 2))
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
	var cr ring.RangedCovarRing
	pure := pureRing[*ring.RangedCovar]{r: cr}
	eq := (*ring.RangedCovar).Equal
	schema := value.NewSchema("A")
	ownedKey, aliasKey := value.T(1), value.T(2)
	constant := covarOf(1, 2)
	constantCopy := constant.Clone()
	delta := func() *Map[*ring.RangedCovar] {
		d := New[*ring.RangedCovar](schema)
		d.Merge(cr, ownedKey, covarOf(1, 1))
		d.Merge(cr, ownedKey, covarOf(1, 1)) // the sum is d's own
		d.Set(aliasKey, constant)            // flagged shared
		return d
	}
	m, ref := New[*ring.RangedCovar](schema), New[*ring.RangedCovar](schema)
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
	var cr ring.RangedCovarRing
	schema := value.NewSchema("A")
	m := New[*ring.RangedCovar](schema)
	for k := 0; k < 3; k++ {
		m.Merge(cr, value.T(k), covarOf(1, 1))
		m.Merge(cr, value.T(k), covarOf(1, 2)) // now owned by m
	}
	want := m.String()
	delta := New[*ring.RangedCovar](schema)
	delta.Set(value.T(1), covarOf(5, 1))

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
	var cr ring.RangedCovarRing
	in := New[*ring.RangedCovar](value.NewSchema("A", "B"))
	for k := 0; k < 3; k++ {
		in.Merge(cr, value.T(k, k), covarOf(1, 1))
		in.Merge(cr, value.T(k, k), covarOf(1, 2)) // owned by in
	}
	out := Aggregate[*ring.RangedCovar](cr, in, value.NewSchema("A"), "", nil)
	wantOut := out.String()

	dIn := New[*ring.RangedCovar](in.Schema())
	dIn.Set(value.T(1, 1), covarOf(3, 1))
	in.MergeAll(cr, dIn)
	in.MergeAll(cr, dIn)
	if got := out.String(); got != wantOut {
		t.Fatalf("aggregate changed when its input was merged into:\n%s\nwant\n%s", got, wantOut)
	}
	wantIn := in.String()
	dOut := New[*ring.RangedCovar](out.Schema())
	dOut.Set(value.T(2), covarOf(3, 1))
	out.MergeAll(cr, dOut)
	out.MergeAll(cr, dOut)
	if got := in.String(); got != wantIn {
		t.Fatalf("input changed when its aggregate was merged into:\n%s\nwant\n%s", got, wantIn)
	}
}
