package view

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
)

// TestInitWeightedReadsCallerMaps: a weighted load applies the caller's
// relations as deltas — no copy is taken — so what keeps them stable is
// the shared flag the tree puts on every payload it stores from them.
// The caller's maps here OWN their payloads (two merges per tuple leave
// an unshared sum), the ring accumulates in place, and the later updates
// hit the loaded keys: a tree that folded into a loaded payload would
// change the caller's map.
func TestInitWeightedReadsCallerMaps(t *testing.T) {
	cr := ring.NewCovarRing(3)
	spec := Spec[*ring.Covar]{Ring: cr, Relations: chainRels,
		Lifts: map[string]ring.Lift[*ring.Covar]{"B": cr.Lift(0), "C": cr.Lift(1), "D": cr.Lift(2)}}
	data := map[string]*relation.Map[*ring.Covar]{}
	var ups []Update
	for i, rel := range chainRels {
		m := relation.New[*ring.Covar](rel.Schema)
		for j := 0; j < 4+i; j++ {
			tp := value.T(j%3, (j+i)%3)
			m.Merge(cr, tp, cr.One())
			m.Merge(cr, tp, cr.One())
			ups = append(ups, Update{Rel: rel.Name, Tuple: tp, Mult: 1})
		}
		data[rel.Name] = m
	}
	before := map[string]string{}
	for name, m := range data {
		before[name] = m.String()
	}

	tr := mustTree(t, spec)
	if err := tr.InitWeighted(data); err != nil {
		t.Fatal(err)
	}
	// The same contents reached by plain deltas of private copies.
	ref := mustTree(t, spec)
	for _, rel := range chainRels {
		if err := ref.ApplyDelta(rel.Name, data[rel.Name].Negate(cr).Negate(cr)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := treeState(tr), treeState(ref); got != want {
		t.Fatalf("weighted load differs from the same relations applied as deltas:\n%s\nvs\n%s", got, want)
	}
	for _, u := range ups {
		if err := tr.ApplyUpdates([]Update{u}); err != nil {
			t.Fatal(err)
		}
	}
	for name, m := range data {
		if got := m.String(); got != before[name] {
			t.Fatalf("maintenance after InitWeighted changed the caller's %s:\n%s\nwas\n%s", name, got, before[name])
		}
	}
}

// TestLoadLeavesViewsOwningTheirPayloads: a load commits through Absorb
// like any delta, so a view whose payloads are fresh products nothing
// else keeps (its node lifts, and its parent joins it with a sibling
// rather than storing its payloads unlifted) owns them straight away,
// and the first update after the load folds into them in place.
// Flagging them shared instead would make every first touch after a
// bulk load copy the stored payload.
func TestLoadLeavesViewsOwningTheirPayloads(t *testing.T) {
	cr := ring.NewCovarRing(3)
	tr := mustTree(t, Spec[*ring.Covar]{Ring: cr, Relations: chainRels,
		Lifts: map[string]ring.Lift[*ring.Covar]{"B": cr.Lift(0), "C": cr.Lift(1), "D": cr.Lift(2)}})
	if err := tr.Init(map[string][]value.Tuple{
		"R": {value.T(1, 1), value.T(2, 1)}, "S": {value.T(1, 1)}, "T": {value.T(1, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	type slot struct {
		view *relation.Map[*ring.Covar]
		key  string
	}
	loaded := map[slot]*ring.Covar{}
	var walk func(n *Node[*ring.Covar])
	walk = func(n *Node[*ring.Covar]) {
		if n.step.lift != nil && n.parent != nil && len(n.parent.step.joins) > 0 {
			n.view.Each(func(tp value.Tuple, p *ring.Covar) { loaded[slot{n.view, tp.Encode()}] = p })
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range tr.roots {
		walk(r)
	}
	if len(loaded) == 0 {
		t.Fatal("no lifted view holds anything; the check below would prove nothing")
	}
	before := treeState(tr)
	for _, u := range []Update{{Rel: "R", Tuple: value.T(3, 1), Mult: 1}, {Rel: "S", Tuple: value.T(1, 1), Mult: 1}, {Rel: "T", Tuple: value.T(1, 1), Mult: 1}} {
		if err := tr.ApplyUpdates([]Update{u}); err != nil {
			t.Fatal(err)
		}
	}
	if treeState(tr) == before {
		t.Fatal("the updates changed nothing")
	}
	for s, p := range loaded {
		tp, err := value.DecodeTuple(s.key)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := s.view.Get(tp); ok && got != p {
			t.Fatalf("the first update after Init copied the loaded payload of %v instead of folding into it", tp)
		}
	}
}
