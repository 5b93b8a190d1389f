package ring

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

// TestQuickCovarMulMatchesDefinition cross-checks the packed-triangle
// product against the textbook formulas computed on full matrices.
func TestQuickCovarMulMatchesDefinition(t *testing.T) {
	const m = 3
	r := NewCovarRing(m)
	fromRaw := func(c float64, s, q []int8) *Covar {
		out := r.One()
		out.C = c
		for i := 0; i < m; i++ {
			out.S[i] = float64(s[i%len(s)])
		}
		k := 0
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				out.Q[k] = float64(q[k%len(q)])
				k++
			}
		}
		return out
	}
	if err := quick.Check(func(ca, cb int8, sa, sb, qa, qb []int8) bool {
		if len(sa) == 0 || len(sb) == 0 || len(qa) == 0 || len(qb) == 0 {
			return true
		}
		a := fromRaw(float64(ca), sa, qa)
		b := fromRaw(float64(cb), sb, qb)
		got := r.Mul(a, b)
		// Reference: full-matrix formulas.
		for i := 0; i < m; i++ {
			if got.Sum(i) != b.C*a.Sum(i)+a.C*b.Sum(i) {
				return false
			}
			for j := 0; j < m; j++ {
				want := b.C*a.Prod(i, j) + a.C*b.Prod(i, j) + a.Sum(i)*b.Sum(j) + b.Sum(i)*a.Sum(j)
				if got.Prod(i, j) != want {
					return false
				}
			}
		}
		return got.Count() == a.C*b.C
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickRelationalAddCancellation: a + (-a) is always the empty
// relation, and a + 0 = a, across random relational values.
func TestQuickRelationalAddCancellation(t *testing.T) {
	var r Relational
	if err := quick.Check(func(keys []uint8, coeffs []int8) bool {
		if len(keys) == 0 || len(coeffs) == 0 {
			return true
		}
		a := RelVal{}
		for i, k := range keys {
			c := float64(coeffs[i%len(coeffs)])
			if c != 0 {
				a[value.T(int(k%8)).Encode()] += c
			}
		}
		for k, v := range a {
			if v == 0 {
				delete(a, k)
			}
		}
		if !r.IsZero(r.Add(a, r.Neg(a))) {
			return false
		}
		return r.Add(a, nil).Equal(a)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickLiftFoldEqualsDirectStats folds random rows through the
// generalized ring and compares every component against directly
// computed group-by statistics — the fundamental soundness property of
// the lift/product/sum encoding.
func TestQuickLiftFoldEqualsDirectStats(t *testing.T) {
	const m = 2
	r := NewRelCovarRing(m)
	gCat := r.LiftCategorical(0)
	gX := r.LiftContinuous(1)
	if err := quick.Check(func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int(n%16) + 1
		total := r.Zero()
		counts := map[int64]float64{}
		sumXBy := map[int64]float64{}
		var sumX, sumXX float64
		for i := 0; i < rows; i++ {
			cat := int64(rng.Intn(3))
			x := float64(rng.Intn(9) - 4)
			total = r.Add(total, r.Mul(gCat(value.Int(cat)), gX(value.Float(x))))
			counts[cat]++
			sumXBy[cat] += x
			sumX += x
			sumXX += x * x
		}
		if total.Count().Scalar() != float64(rows) {
			return false
		}
		if total.Sum(1).Scalar() != sumX || total.Prod(1, 1).Scalar() != sumXX {
			return false
		}
		for cat, c := range counts {
			if total.Sum(0).Get(value.T(cat)) != c {
				return false
			}
			if total.Prod(0, 1).Get(value.T(cat)) != sumXBy[cat] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickCodecRoundTrips: the Z-ring codec round-trips random values.
func TestQuickCodecRoundTrips(t *testing.T) {
	if err := quick.Check(func(v int64) bool {
		var got int64
		got = roundTripQuick[int64](t, IntCodec{}, v)
		return got == v
	}, nil); err != nil {
		t.Errorf("int codec: %v", err)
	}
}

func roundTripQuick[V any](t *testing.T, c Codec[V], v V) V {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf, v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := c.Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}
