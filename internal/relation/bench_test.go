package relation

import (
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
)

// The Step kernel on the delta path's shape: a 1000-tuple delta over
// (A, B) against a 100 000-tuple sibling over (B, C), one match per
// delta tuple, marginalizing B into 100 groups of A — into a recycled
// output, as the view tree runs it.
func benchStep[V any](b *testing.B, r ring.Ring[V], deltaPayload, siblingPayload func(i int) V, lift ring.Lift[V], indexed bool) {
	const deltaN, siblingN, groups = 1000, 100_000, 100
	sAB, sBC := value.NewSchema("A", "B"), value.NewSchema("B", "C")
	liftAttr := ""
	if lift != nil {
		liftAttr = "B"
	}
	plan := PlanStep([]value.Schema{sAB, sBC}, 0, value.NewSchema("A"), liftAttr)
	delta, sibling := New[V](sAB), NewSized[V](sBC, siblingN)
	if indexed {
		sibling.AddIndex(plan.IndexKey(1))
	}
	for i := 0; i < siblingN; i++ {
		sibling.Merge(r, value.T(i, i%7), siblingPayload(i))
	}
	for i := 0; i < deltaN; i++ {
		delta.Merge(r, value.T(i%groups, (i*97)%siblingN), deltaPayload(i))
	}
	out := NewSized[V](plan.out, deltaN)
	parts := []*Map[V]{delta, sibling}
	Step(plan, r, parts, lift, out, false) // the first probe builds the lazy index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if Step(plan, r, parts, lift, out, false).Len() != groups {
			b.Fatalf("step produced %d groups, want %d", out.Len(), groups)
		}
	}
}

func benchStepKinds(b *testing.B, lifted, indexed bool) {
	b.Run("ints", func(b *testing.B) {
		var lift ring.Lift[int64]
		if lifted {
			lift = func(_ int64, v value.Value) int64 { return v.Int() + 1 }
		}
		payload := func(i int) int64 { return int64(i%5 + 1) }
		benchStep[int64](b, ring.Ints{}, payload, payload, lift, indexed)
	})
	b.Run("covar", func(b *testing.B) {
		// The delta lifts attribute 0, the sibling 1, the step 2: the
		// adjacent ranges of a covar view tree.
		var cr ring.RangedCovarRing
		var lift ring.Lift[*ring.RangedCovar]
		if lifted {
			lift = cr.Lift(2)
		}
		payload := func(idx int) func(i int) *ring.RangedCovar {
			return func(i int) *ring.RangedCovar { return cr.Lift(idx)(nil, value.Int(int64(i%5+1))) }
		}
		benchStep[*ring.RangedCovar](b, cr, payload(0), payload(1), lift, indexed)
	})
}

// BenchmarkStepProbe: the delta iterates and probes the sibling's index.
func BenchmarkStepProbe(b *testing.B) { benchStepKinds(b, false, true) }

// BenchmarkStepScan: no index on the sibling, so the step builds on the
// delta and scans the sibling — a bulk load's orientation.
func BenchmarkStepScan(b *testing.B) { benchStepKinds(b, false, false) }

// BenchmarkStepLifted: the probe with a lift on the marginalized
// attribute (a lift into a scratch slot, then one MulAddInto per pair).
func BenchmarkStepLifted(b *testing.B) { benchStepKinds(b, true, true) }
