package ring

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// The parallel delta propagation in internal/view merges per-partition
// delta views with the ring addition, from multiple goroutines' outputs
// in arbitrary partition order, while workers concurrently read shared
// sibling payloads. That is only sound if every ring's Add is
// associative and commutative and no ring operation mutates its
// arguments. These property tests pin that contract for each ring; data
// is integer-valued so float sums are exact and associativity holds
// bit-for-bit, matching what the equivalence tests in view and fivm
// rely on.

// checkMergeContract drives one ring through random triples: Add must
// commute and associate, and Add/Mul/Neg must leave their arguments
// untouched.
func checkMergeContract[V any](t *testing.T, name string, r Ring[V], gen func(rnd *rand.Rand) V, clone func(V) V, eq func(a, b V) bool, mul bool) {
	t.Helper()
	rnd := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		a, b, c := gen(rnd), gen(rnd), gen(rnd)
		ac, bc, cc := clone(a), clone(b), clone(c)
		if !eq(r.Add(a, b), r.Add(b, a)) {
			t.Fatalf("%s: Add is not commutative", name)
		}
		if !eq(r.Add(r.Add(a, b), c), r.Add(a, r.Add(b, c))) {
			t.Fatalf("%s: Add is not associative", name)
		}
		if mul {
			_ = r.Mul(a, b)
		}
		_ = r.Neg(a)
		_ = r.IsZero(a)
		if !eq(a, ac) || !eq(b, bc) || !eq(c, cc) {
			t.Fatalf("%s: a ring operation mutated its argument", name)
		}
		// Zero is the identity and a + (-a) cancels exactly.
		if !eq(r.Add(a, r.Zero()), ac) {
			t.Fatalf("%s: a + 0 != a", name)
		}
		if !r.IsZero(r.Add(a, r.Neg(a))) {
			t.Fatalf("%s: a + (-a) is not zero", name)
		}
	}
}

func TestMergeContractInts(t *testing.T) {
	checkMergeContract[int64](t, "Ints", Ints{},
		func(rnd *rand.Rand) int64 { return int64(rnd.Intn(9) - 4) },
		func(v int64) int64 { return v },
		func(a, b int64) bool { return a == b },
		true)
}

func TestMergeContractFloats(t *testing.T) {
	checkMergeContract[float64](t, "Floats", Floats{},
		func(rnd *rand.Rand) float64 { return float64(rnd.Intn(9) - 4) },
		func(v float64) float64 { return v },
		func(a, b float64) bool { return a == b },
		true)
}

func TestMergeContractRelational(t *testing.T) {
	gen := func(rnd *rand.Rand) RelVal {
		n := rnd.Intn(4)
		if n == 0 {
			return nil
		}
		out := RelVal{}
		for i := 0; i < n; i++ {
			k := value.Tuple{value.Int(int64(rnd.Intn(4)))}.Encode()
			c := float64(rnd.Intn(7) - 3)
			if c != 0 {
				out[k] = c
			}
		}
		if len(out) == 0 {
			return nil
		}
		return out
	}
	checkMergeContract[RelVal](t, "Relational", Relational{},
		gen, RelVal.Clone, RelVal.Equal, true)
}

func TestMergeContractCovar(t *testing.T) {
	r := NewCovarRing(3)
	gen := func(rnd *rand.Rand) *Covar {
		if rnd.Intn(5) == 0 {
			return nil
		}
		c := r.One()
		c.C = float64(rnd.Intn(7) - 3)
		for i := range c.S {
			c.S[i] = float64(rnd.Intn(7) - 3)
		}
		for i := range c.Q {
			c.Q[i] = float64(rnd.Intn(7) - 3)
		}
		return c
	}
	checkMergeContract[*Covar](t, "Covar", r, gen, (*Covar).Clone, (*Covar).Equal, true)
}

func TestMergeContractRelCovar(t *testing.T) {
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
	checkMergeContract[*RelCovar](t, "RelCovar", r, gen, (*RelCovar).Clone, (*RelCovar).Equal, true)
}

func TestMergeContractRangedCovar(t *testing.T) {
	var r RangedCovarRing
	// All values share one range: partition merges in the view layer
	// only ever add payloads of the same view key, whose range is fixed
	// by the subtree, so same-range is the contract Add needs. Mul
	// requires adjacent ranges and is exercised by the engine tests.
	gen := func(rnd *rand.Rand) *RangedCovar {
		if rnd.Intn(5) == 0 {
			return nil
		}
		return randRanged(rnd, 1, 2, false)
	}
	checkMergeContract[*RangedCovar](t, "RangedCovar", r, gen, (*RangedCovar).Clone, (*RangedCovar).Equal, false)
}
