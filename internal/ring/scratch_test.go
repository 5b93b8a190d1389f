package ring

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// The fused accumulation paths of relation.Step rely on the
// Scratch and FMA extensions being indistinguishable from the pure ring
// operations: AddInto(own(a), b) must equal Add(a, b), MulAddInto(
// own(c), a, b) must equal Add(c, Mul(a, b)), and the read-only
// operands must come out bit-identical — that is what keeps maintained
// views bit-identical whichever path ran. These property tests pin the
// contract for every ring implementing the extensions.

// checkScratchContract draws the operands of each round from gen, or,
// for the FMA half, from fmaGen when it is non-nil: a ring whose sums
// and products constrain their operands differently (ranged payloads
// add within one range and multiply adjacent ones) supplies a
// generator of a, b, c fit for c + a×b.
func checkScratchContract[V any](t *testing.T, name string, r Ring[V], gen func(rnd *rand.Rand) V, fmaGen func(rnd *rand.Rand) (a, b, c V), clone func(V) V, eq func(a, b V) bool) {
	t.Helper()
	sc, ok := r.(Scratch[V])
	if !ok {
		t.Fatalf("%s: ring does not implement Scratch", name)
	}
	fma, hasFMA := r.(FMA[V])
	rnd := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		a, b, c := gen(rnd), gen(rnd), gen(rnd)
		ac, bc, cc := clone(a), clone(b), clone(c)

		// Own yields an equal value whose mutation cannot reach the
		// original.
		own := sc.Own(a)
		if !eq(own, a) {
			t.Fatalf("%s: Own(a) != a", name)
		}
		got := sc.AddInto(own, b)
		want := r.Add(ac, bc)
		if !eq(got, want) {
			t.Fatalf("%s: AddInto(Own(a), b) = %v, want Add(a, b) = %v", name, got, want)
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

		if hasFMA {
			if fmaGen != nil {
				a, b, c = fmaGen(rnd)
				ac, bc, cc = clone(a), clone(b), clone(c)
			}
			got := fma.MulAddInto(sc.Own(c), a, b)
			want := r.Add(cc, r.Mul(a, b))
			if !eq(got, want) {
				t.Fatalf("%s: MulAddInto(Own(c), a, b) = %v, want c + a*b = %v", name, got, want)
			}
			if !eq(a, ac) || !eq(b, bc) || !eq(c, cc) {
				t.Fatalf("%s: MulAddInto mutated a read-only operand", name)
			}
			z := fma.MulAddInto(r.Zero(), a, b)
			if !eq(z, r.Mul(ac, bc)) {
				t.Fatalf("%s: MulAddInto(0, a, b) != a*b", name)
			}
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
		v := lifts[rnd.Intn(len(lifts))](value.Int(int64(rnd.Intn(4))))
		if rnd.Intn(2) == 0 {
			v = r.Mul(v, lifts[rnd.Intn(len(lifts))](value.Int(int64(rnd.Intn(4)))))
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
