package ring

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// checkRingAxioms exercises the ring laws on randomly drawn elements:
// additive/multiplicative identity, additive inverse, associativity,
// commutativity of +, and distributivity. eq compares elements; gen
// draws a random element.
func checkRingAxioms[V any](t *testing.T, name string, r Ring[V], gen func(*rand.Rand) V, eq func(a, b V) bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b, c := gen(rng), gen(rng), gen(rng)

		if !eq(r.Add(a, r.Zero()), a) {
			t.Fatalf("%s: a + 0 != a for %v", name, a)
		}
		if !eq(r.Mul(a, r.One()), a) {
			t.Fatalf("%s: a * 1 != a for %v", name, a)
		}
		if !eq(r.Mul(r.One(), a), a) {
			t.Fatalf("%s: 1 * a != a for %v", name, a)
		}
		if !r.IsZero(r.Add(a, r.Neg(a))) {
			t.Fatalf("%s: a + (-a) != 0 for %v", name, a)
		}
		if !eq(r.Add(a, b), r.Add(b, a)) {
			t.Fatalf("%s: + not commutative", name)
		}
		if !eq(r.Add(r.Add(a, b), c), r.Add(a, r.Add(b, c))) {
			t.Fatalf("%s: + not associative", name)
		}
		if !eq(r.Mul(r.Mul(a, b), c), r.Mul(a, r.Mul(b, c))) {
			t.Fatalf("%s: * not associative", name)
		}
		if !eq(r.Mul(a, r.Add(b, c)), r.Add(r.Mul(a, b), r.Mul(a, c))) {
			t.Fatalf("%s: left distributivity fails", name)
		}
		if !eq(r.Mul(r.Add(a, b), c), r.Add(r.Mul(a, c), r.Mul(b, c))) {
			t.Fatalf("%s: right distributivity fails", name)
		}
		if !r.IsZero(r.Mul(a, r.Zero())) || !r.IsZero(r.Mul(r.Zero(), a)) {
			t.Fatalf("%s: a * 0 != 0", name)
		}
	}
}

func TestIntsAxioms(t *testing.T) {
	checkRingAxioms[int64](t, "Ints", Ints{},
		func(r *rand.Rand) int64 { return int64(r.Intn(21) - 10) },
		func(a, b int64) bool { return a == b })
}

func TestFloatsAxioms(t *testing.T) {
	// Small integer-valued floats keep arithmetic exact, so the axioms
	// hold with equality.
	checkRingAxioms[float64](t, "Floats", Floats{},
		func(r *rand.Rand) float64 { return float64(r.Intn(21) - 10) },
		func(a, b float64) bool { return a == b })
}

func TestLifts(t *testing.T) {
	if CountLift(value.Int(7)) != 1 {
		t.Error("CountLift != 1")
	}
	if IdentityLift(value.Int(7)) != 7 || IdentityLift(value.Float(2.5)) != 2.5 {
		t.Error("IdentityLift wrong")
	}
	if SquareLift(value.Int(3)) != 9 {
		t.Error("SquareLift wrong")
	}
}

// randRelVal draws a small relational value over 1-tuples with integer
// coefficients (exact arithmetic).
func randRelVal(r *rand.Rand) RelVal {
	n := r.Intn(4)
	if n == 0 {
		return nil
	}
	out := make(RelVal, n)
	for i := 0; i < n; i++ {
		k := value.T(r.Intn(3)).Encode()
		c := float64(r.Intn(7) - 3)
		if c == 0 {
			continue
		}
		out[k] = c
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func TestRelationalAxioms(t *testing.T) {
	// Note: the relational product concatenates keys, so Mul is not
	// commutative in general — the axioms checked here (a ring without
	// commutative multiplication) all hold.
	checkRingAxioms[RelVal](t, "Relational", Relational{}, randRelVal,
		func(a, b RelVal) bool { return a.Equal(b) })
}

func TestRelationalOps(t *testing.T) {
	var r Relational
	a := RelVal{value.T("x").Encode(): 2}
	b := RelVal{value.T("x").Encode(): -2, value.T("y").Encode(): 1}
	sum := r.Add(a, b)
	if sum.Len() != 1 || sum.Get(value.T("y")) != 1 {
		t.Errorf("Add cancellation failed: %v", sum)
	}
	prod := r.Mul(a, RelVal{value.T("z").Encode(): 3})
	if prod.Get(value.T("x", "z")) != 6 {
		t.Errorf("Mul concat failed: %v", prod)
	}
	if !r.IsZero(r.Mul(a, nil)) {
		t.Error("a * 0 != 0")
	}
	if one := r.One(); one.Scalar() != 1 || one.Len() != 1 {
		t.Errorf("One = %v", one)
	}
	if r.Neg(a).Get(value.T("x")) != -2 {
		t.Error("Neg failed")
	}
}

func TestRelValHelpers(t *testing.T) {
	a := RelVal{value.T(1).Encode(): 2, value.T(2).Encode(): 3}
	cl := a.Clone()
	cl[value.T(1).Encode()] = 99
	if a.Get(value.T(1)) != 2 {
		t.Error("Clone aliases source")
	}
	if a.Equal(cl) {
		t.Error("Equal ignores coefficients")
	}
	if RelVal(nil).Clone() != nil {
		t.Error("nil Clone must stay nil")
	}
	if !RelVal(nil).Equal(RelVal{}) {
		t.Error("nil and empty must be Equal")
	}
	if got := a.String(); got != "{(1)->2, (2)->3}" {
		t.Errorf("String = %q", got)
	}
	if RelVal(nil).String() != "{}" {
		t.Error("nil String")
	}
	one := RelOne()
	if one.Scalar() != 1 {
		t.Error("RelOne scalar")
	}
	s := RelSingle(value.T("a"), 2.5)
	if s.Get(value.T("a")) != 2.5 {
		t.Error("RelSingle")
	}
}

// TestRelAddInto pins the reference formulas' in-place sum
// (relcovar_ref_test.go).
func TestRelAddInto(t *testing.T) {
	a := RelVal{value.T(1).Encode(): 2}
	// relAddInto cancels to empty map but never returns wrong values.
	dst := relAddInto(nil, a, 1)
	dst = relAddInto(dst, a, -1)
	if len(dst) != 0 {
		t.Errorf("addInto cancellation: %v", dst)
	}
	if relAddInto(nil, nil, 5) != nil {
		t.Error("addInto of zero allocated")
	}
	if d := relAddInto(nil, a, 3); d.Get(value.T(1)) != 6 {
		t.Errorf("addInto scaled: %v", d)
	}
}
