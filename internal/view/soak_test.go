package view_test

// Long-running randomized soak test: a 4-relation cyclic-ish schema,
// three rings maintained side by side over thousands of random updates
// applied in batches, each checkpoint cross-checked against
// recomputation. Run with -short to skip.

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

func TestSoakThreeRingsLongStream(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rels := []vo.Rel{
		{Name: "R", Schema: value.NewSchema("A", "B")},
		{Name: "S", Schema: value.NewSchema("B", "C")},
		{Name: "T", Schema: value.NewSchema("C", "D")},
		{Name: "U", Schema: value.NewSchema("B", "E")},
	}
	z := ring.Ints{}
	rc := ring.NewRelCovarRing(3)

	count, err := view.New(view.Spec[int64]{Ring: z, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	// COVAR over B, D, E, attributes from three different relations: the
	// covar engine's ranged ring at its post-order lift indexes, and the
	// analysis engine's relational ring, all three continuous, at B=0,
	// D=1, E=2.
	ord, lifts, perm := view.PostOrderLifts(t, rels, "B", "D", "E")
	ranged, err := view.New(view.Spec[*ring.RangedCovar]{
		Ring: ring.RangedCovarRing{}, Order: ord, Relations: rels, Lifts: lifts,
	})
	if err != nil {
		t.Fatal(err)
	}
	covar, err := view.New(view.Spec[*ring.RelCovar]{
		Ring: rc, Relations: rels,
		Lifts: map[string]ring.Lift[*ring.RelCovar]{
			"B": rc.LiftContinuous(0), "D": rc.LiftContinuous(1), "E": rc.LiftContinuous(2),
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := count.Init(nil); err != nil {
		t.Fatal(err)
	}
	if err := covar.Init(nil); err != nil {
		t.Fatal(err)
	}
	if err := ranged.Init(nil); err != nil {
		t.Fatal(err)
	}

	shadow := map[string]*relation.Map[int64]{}
	for _, r := range rels {
		shadow[r.Name] = relation.New[int64](r.Schema)
	}
	rng := rand.New(rand.NewSource(1234))

	recomputeCount := func() int64 {
		cur := shadow["R"]
		for _, name := range []string{"S", "T", "U"} {
			cur = relation.Join[int64](z, cur, shadow[name])
		}
		var total int64
		cur.Each(func(_ value.Tuple, p int64) { total += p })
		return total
	}

	// Updates accumulate into batches and always flush before a
	// checkpoint, so every cross-check sees the full prefix of the stream.
	const steps = 4000
	const soakBatch = 48
	var pending []view.Update
	flush := func() {
		if len(pending) == 0 {
			return
		}
		if err := count.ApplyUpdates(pending); err != nil {
			t.Fatal(err)
		}
		if err := covar.ApplyUpdates(pending); err != nil {
			t.Fatal(err)
		}
		if err := ranged.ApplyUpdates(pending); err != nil {
			t.Fatal(err)
		}
		pending = pending[:0]
	}
	for step := 0; step < steps; step++ {
		r := rels[rng.Intn(len(rels))]
		sh := shadow[r.Name]
		var up view.Update
		if sh.Len() > 0 && rng.Float64() < 0.4 {
			k := rng.Intn(sh.Len())
			i := 0
			sh.Each(func(tp value.Tuple, _ int64) {
				if i == k {
					up = view.Update{Rel: r.Name, Tuple: tp, Mult: -1}
				}
				i++
			})
		} else {
			up = view.Update{Rel: r.Name, Tuple: value.T(rng.Intn(4), rng.Intn(4)), Mult: 1}
		}
		sh.Merge(z, up.Tuple, int64(up.Mult))
		pending = append(pending, up)
		if len(pending) >= soakBatch {
			flush()
		}

		if step%250 == 0 || step == steps-1 {
			flush()
			want := recomputeCount()
			if got := count.ResultPayload(); got != want {
				t.Fatalf("step %d: count %d, naive %d", step, got, want)
			}
			rp := ranged.ResultPayload().Widen(perm)
			if rp.Count() != float64(want) {
				t.Fatalf("step %d: ranged count %v, naive %d", step, rp.Count(), want)
			}
			// Cross-ring agreement on every statistic.
			cp := covar.ResultPayload()
			same := cp.CountScalar() == rp.Count()
			for i := 0; i < 3; i++ {
				same = same && cp.Sum(i).Scalar() == rp.Sum(i)
				for j := i; j < 3; j++ {
					same = same && cp.Prod(i, j).Scalar() == rp.Prod(i, j)
				}
			}
			if !same {
				t.Fatalf("step %d: relational covar %v vs ranged %v", step, cp, rp)
			}
		}
	}
}
