package ring

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// The fused accumulation paths of relation.Step rely on the
// Scratch extension being indistinguishable from the pure ring
// operations: AddInto(own(a), b) must equal Add(a, b), MulAddInto(
// own(c), a, b) must equal Add(c, Mul(a, b)), and the read-only
// operands must come out bit-identical — that is what keeps maintained
// views bit-identical whichever path ran. These property tests pin the
// contract for every ring implementing the extension.

// checkScratchContract draws the operands of each round from gen, or,
// for the MulAddInto half, from fmaGen when it is non-nil: a ring whose
// sums and products constrain their operands differently (ranged
// payloads add within one range and multiply adjacent ones) supplies a
// generator of a, b, c fit for c + a×b.
func checkScratchContract[V any](t *testing.T, name string, r Ring[V], gen func(rnd *rand.Rand) V, fmaGen func(rnd *rand.Rand) (a, b, c V), clone func(V) V, eq func(a, b V) bool) {
	t.Helper()
	sc, ok := r.(Scratch[V])
	if !ok {
		t.Fatalf("%s: ring does not implement Scratch", name)
	}
	rnd := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		a, b, c := gen(rnd), gen(rnd), gen(rnd)
		ac, bc, cc := clone(a), clone(b), clone(c)

		// AddInto folds into an accumulator the caller owns (a clone)
		// and leaves the original alone.
		got := sc.AddInto(clone(a), b)
		want := r.Add(ac, bc)
		if !eq(got, want) {
			t.Fatalf("%s: AddInto(clone(a), b) = %v, want Add(a, b) = %v", name, got, want)
		}
		if !eq(a, ac) || !eq(b, bc) {
			t.Fatalf("%s: AddInto mutated a read-only operand", name)
		}

		// Accumulating from the ring zero owns the addend's value.
		z := sc.AddInto(r.Zero(), b)
		if !eq(z, bc) {
			t.Fatalf("%s: AddInto(0, b) != b", name)
		}
		_ = sc.AddInto(z, b) // must not disturb b
		if !eq(b, bc) {
			t.Fatalf("%s: mutating AddInto(0, b) reached b", name)
		}

		if fmaGen != nil {
			a, b, c = fmaGen(rnd)
			ac, bc, cc = clone(a), clone(b), clone(c)
		}
		got = sc.MulAddInto(clone(c), a, b)
		want = r.Add(cc, r.Mul(a, b))
		if !eq(got, want) {
			t.Fatalf("%s: MulAddInto(clone(c), a, b) = %v, want c + a*b = %v", name, got, want)
		}
		if !eq(a, ac) || !eq(b, bc) || !eq(c, cc) {
			t.Fatalf("%s: MulAddInto mutated a read-only operand", name)
		}
		z = sc.MulAddInto(r.Zero(), a, b)
		if !eq(z, r.Mul(ac, bc)) {
			t.Fatalf("%s: MulAddInto(0, a, b) != a*b", name)
		}
	}
}

func TestScratchContractRelCovar(t *testing.T) {
	r := NewRelCovarRing(2)
	lifts := []Lift[*RelCovar]{r.LiftContinuous(0), r.LiftCategorical(1)}
	gen := func(rnd *rand.Rand) *RelCovar {
		if rnd.Intn(5) == 0 {
			return nil
		}
		v := lifts[rnd.Intn(len(lifts))](nil, value.Int(int64(rnd.Intn(4))))
		if rnd.Intn(2) == 0 {
			v = r.Mul(v, lifts[rnd.Intn(len(lifts))](nil, value.Int(int64(rnd.Intn(4)))))
		}
		if rnd.Intn(3) == 0 {
			v = r.Neg(v)
		}
		return v
	}
	checkScratchContract[*RelCovar](t, "RelCovar", r, gen, nil, (*RelCovar).Clone, (*RelCovar).Equal)
}

func TestScratchContractRangedCovar(t *testing.T) {
	var r RangedCovarRing
	// AddInto inherits Add's same-range contract (see
	// TestMergeContractRangedCovar); the fused products take adjacent
	// ranges in either operand order, a scalar on either side, and an
	// accumulator over their union — real-valued, so a term rounded
	// differently from Add(c, Mul(a, b)) would show.
	gen := func(rnd *rand.Rand) *RangedCovar {
		if rnd.Intn(5) == 0 {
			return nil
		}
		return randRanged(rnd, 1, 2, false)
	}
	fmaGen := func(rnd *rand.Rand) (a, b, c *RangedCovar) {
		split := rnd.Intn(4) // a covers [0, split), b [split, 3)
		a, b = randRanged(rnd, 0, split, true), randRanged(rnd, split, 3-split, true)
		if rnd.Intn(2) == 0 {
			a, b = b, a
		}
		if rnd.Intn(5) > 0 {
			c = randRanged(rnd, 0, 3, true)
		}
		return a, b, c
	}
	checkScratchContract[*RangedCovar](t, "RangedCovar", r, gen, fmaGen, (*RangedCovar).Clone, (*RangedCovar).Equal)
}

// TestSlabContractRangedCovar pins the ranged ring's Slab against the
// pure operations: a carved product, copy and lift equal Mul, Clone and
// the lift bit for bit and leave their operands alone; a freed slot is
// handed out again, and never while another value still holds it; and
// a slot parked before the slab's width grew is dropped, not reused.
func TestSlabContractRangedCovar(t *testing.T) {
	var r RangedCovarRing
	sb := r.NewSlab()
	rnd := rand.New(rand.NewSource(29))
	var held, want []*RangedCovar
	for i := 0; i < 400; i++ {
		split := rnd.Intn(4) // a covers [0, split), b [split, 3)
		a, b := randRanged(rnd, 0, split, true), randRanged(rnd, split, 3-split, true)
		if rnd.Intn(2) == 0 {
			a, b = b, a
		}
		ac, bc := a.Clone(), b.Clone()
		var got, ref *RangedCovar
		switch rnd.Intn(3) {
		case 0:
			got, ref = sb.Mul(a, b), r.Mul(a, b)
		case 1:
			got, ref = sb.Own(a), a.Clone()
		default:
			l, x := r.Lift(rnd.Intn(3)), value.Float(rnd.NormFloat64())
			got, ref = sb.Lift(l, x), l(nil, x)
		}
		if !got.Equal(ref) {
			t.Fatalf("round %d: carved %v, want %v", i, got, ref)
		}
		if !a.Equal(ac) || !b.Equal(bc) {
			t.Fatalf("round %d: the slab wrote an operand", i)
		}
		held, want = append(held, got), append(want, ref)
		if rnd.Intn(2) == 0 {
			k := rnd.Intn(len(held))
			sb.Free(held[k])
			held[k], want[k] = held[len(held)-1], want[len(want)-1]
			held, want = held[:len(held)-1], want[:len(want)-1]
		}
		for k, h := range held {
			if !h.Equal(want[k]) {
				t.Fatalf("round %d: a held value changed to %v, want %v: its slot was handed out twice", i, h, want[k])
			}
		}
	}

	sb = r.NewSlab()
	x := value.Float(2)
	narrow := sb.Lift(r.Lift(0), x) // the slab's first slot: 2 floats wide
	sb.Free(narrow)
	wide := sb.Mul(randRanged(rnd, 0, 2, false), randRanged(rnd, 2, 1, false))
	if wide == narrow {
		t.Fatal("a 2-float slot was handed out for a 9-float product")
	}
	sb.Free(wide)
	if again := sb.Lift(r.Lift(1), x); again != wide {
		t.Fatal("a freed slot was not handed out again")
	}
}

// randRanged draws a payload over [start, start+n): small integers, so
// sums are exact, or normal reals.
func randRanged(rnd *rand.Rand, start, n int, real bool) *RangedCovar {
	draw := func() float64 { return float64(rnd.Intn(7) - 3) }
	if real {
		draw = rnd.NormFloat64
	}
	c := newRanged(start, n)
	c.C = draw()
	for i := range c.v {
		c.v[i] = draw()
	}
	return c
}
