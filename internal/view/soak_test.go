package view_test

// Long-running randomized soak test: a 4-relation cyclic-ish schema,
// three rings maintained side by side over thousands of random updates
// applied in batches through the parallel commit path (worker count
// derived from GOMAXPROCS, not hardcoded), each checkpoint
// cross-checked against recomputation. Run with -short to skip.

import (
	"math/rand"
	"runtime"
	"slices"
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
	cr := ring.NewCovarRing(3)
	var rr ring.RangedCovarRing

	count, err := view.New(view.Spec[int64]{Ring: z, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	// COVAR over B, D, E: attributes from three different relations.
	covar, err := view.New(view.Spec[*ring.Covar]{
		Ring: cr, Relations: rels,
		Lifts: map[string]ring.Lift[*ring.Covar]{
			"B": cr.Lift(0), "D": cr.Lift(1), "E": cr.Lift(2),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ranged engine needs indexes in the structural order of the shared
	// greedy VO; derive it the same way the facade does.
	ord, err := vo.Build(rels)
	if err != nil {
		t.Fatal(err)
	}
	wantAttr := map[string]bool{"B": true, "D": true, "E": true}
	rangedLifts := map[string]ring.Lift[*ring.RangedCovar]{}
	var rangedOrder []string
	var post func(n *vo.Node)
	post = func(n *vo.Node) {
		for _, c := range n.Children {
			post(c)
		}
		if wantAttr[n.Var] {
			rangedLifts[n.Var] = rr.Lift(len(rangedOrder))
			rangedOrder = append(rangedOrder, n.Var)
		}
	}
	for _, root := range ord.Roots {
		post(root)
	}
	ranged, err := view.New(view.Spec[*ring.RangedCovar]{
		Ring: rr, Order: ord, Relations: rels, Lifts: rangedLifts,
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

	// Route the batches through the parallel commit path at a worker
	// count matched to the host (minimum 2 so a 1-CPU runner still
	// exercises concurrent commits), with the threshold dropped so the
	// modest soak batches fan out.
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	count.SetParallelism(workers, 1)
	covar.SetParallelism(workers, 1)
	ranged.SetParallelism(workers, 1)

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

	// Updates accumulate into batches (applied through the parallel
	// path) and always flush before a checkpoint, so every cross-check
	// sees the full prefix of the stream.
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
			cp := covar.ResultPayload()
			if cp.Count() != float64(want) {
				t.Fatalf("step %d: covar count %v, naive %d", step, cp.Count(), want)
			}
			// Cross-ring agreement: the ranged payload, widened from its
			// structural order into covar's fixed one.
			perm := make([]int, 0, 3)
			for _, a := range []string{"B", "D", "E"} {
				perm = append(perm, slices.Index(rangedOrder, a))
			}
			rp := ranged.ResultPayload().Widen(perm)
			if rp.Count() != float64(want) {
				t.Fatalf("step %d: ranged count %v, naive %d", step, rp.Count(), want)
			}
			if !rp.Equal(cp) {
				t.Fatalf("step %d: covar %v vs ranged %v", step, cp, rp)
			}
		}
	}
}
