package view_test

// End-to-end test of a non-commutative payload ring: per-edge transition
// matrices aggregated over a two-hop path join. This exercises the
// engine's structural product order — with matrix payloads, any
// accidental operand swap changes the result.

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

func TestMatrixPayloadsOverPathJoin(t *testing.T) {
	const dim = 2
	r := ring.NewMatrixRing(dim)
	rels := []vo.Rel{
		{Name: "E1", Schema: value.NewSchema("A", "B")},
		{Name: "E2", Schema: value.NewSchema("B", "C")},
	}
	tr, err := view.New(view.Spec[*ring.Matrix]{Ring: r, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(13))
	randM := func() *ring.Matrix {
		m := r.New()
		for i := range m.Data {
			m.Data[i] = float64(rng.Intn(5))
		}
		return m
	}

	// Two-hop graph: edges (a, b) and (b, c) with a matrix per edge.
	e1 := relation.New[*ring.Matrix](rels[0].Schema)
	e2 := relation.New[*ring.Matrix](rels[1].Schema)
	type edge struct {
		from, to int
		m        *ring.Matrix
	}
	var edges1, edges2 []edge
	for i := 0; i < 6; i++ {
		ed := edge{rng.Intn(3), rng.Intn(3), randM()}
		edges1 = append(edges1, ed)
		e1.Merge(r, value.T(ed.from, ed.to), ed.m)
	}
	for i := 0; i < 6; i++ {
		ed := edge{rng.Intn(3), rng.Intn(3), randM()}
		edges2 = append(edges2, ed)
		e2.Merge(r, value.T(ed.from, ed.to), ed.m)
	}
	if err := tr.InitWeighted(map[string]*relation.Map[*ring.Matrix]{"E1": e1, "E2": e2}); err != nil {
		t.Fatal(err)
	}

	// Reference: Σ over matching paths of M1 · M2 in path order, using
	// the merged edge payloads (parallel edges sum).
	expect := func() *ring.Matrix {
		total := r.Zero()
		e1.Each(func(t1 value.Tuple, m1 *ring.Matrix) {
			e2.Each(func(t2 value.Tuple, m2 *ring.Matrix) {
				if t1[1].Equal(t2[0]) {
					total = r.Add(total, r.Mul(m1, m2))
				}
			})
		})
		return total
	}
	got := tr.ResultPayload()
	if want := expect(); !got.Equal(want) && !(r.IsZero(got) && r.IsZero(want)) {
		t.Fatalf("path-matrix aggregate:\n got %v\nwant %v", got, want)
	}

	// Incremental edge insertion keeps the product order.
	dm := randM()
	d := relation.New[*ring.Matrix](rels[0].Schema)
	d.Set(value.T(0, 0), dm)
	loaded := e1.String()
	if err := tr.ApplyDelta("E1", d); err != nil {
		t.Fatal(err)
	}
	if got := e1.String(); got != loaded {
		t.Fatalf("maintenance changed the relation InitWeighted was given:\n%s\nwas\n%s", got, loaded)
	}
	e1.Merge(r, value.T(0, 0), dm)
	got = tr.ResultPayload()
	if want := expect(); !got.Equal(want) && !(r.IsZero(got) && r.IsZero(want)) {
		t.Fatalf("after delta:\n got %v\nwant %v", got, want)
	}

	// Deleting the edge (negative payload) restores the previous state.
	dneg := relation.New[*ring.Matrix](rels[0].Schema)
	dneg.Set(value.T(0, 0), r.Neg(dm))
	if err := tr.ApplyDelta("E1", dneg); err != nil {
		t.Fatal(err)
	}
	e1.Merge(r, value.T(0, 0), r.Neg(dm))
	got = tr.ResultPayload()
	if want := expect(); !got.Equal(want) && !(r.IsZero(got) && r.IsZero(want)) {
		t.Fatalf("after delete:\n got %v\nwant %v", got, want)
	}
}
