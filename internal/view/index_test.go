package view

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
)

// eachMap visits every relation the tree maintains — views, stored
// sources and the result — in a deterministic order.
func eachMap[V any](tr *Tree[V], fn func(name string, m *relation.Map[V])) {
	var walk func(n *Node[V])
	walk = func(n *Node[V]) {
		fn("view "+n.Var(), n.view)
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range tr.roots {
		walk(r)
	}
	for _, name := range tr.RelationNames() {
		if d := tr.sources[name].data; d != nil {
			fn("source "+name, d)
		}
	}
	fn("result", tr.result)
}

// TestIndexRegistration: building a tree registers join-key indexes on
// every probed part (sibling views and anchored relations), and a bulk
// load — which empties the maps in place and refills them through the
// delta path — keeps every registration, discards the old contents, and
// leaves the indexes earlier probes built consistent.
func TestIndexRegistration(t *testing.T) {
	build := func() *Tree[int64] {
		tr, err := New(Spec[int64]{Ring: ring.Ints{}, Relations: chainRels})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr := build()
	registered := map[string]int{}
	total := 0
	eachMap(tr, func(name string, m *relation.Map[int64]) {
		registered[name] = m.IndexCount()
		total += m.IndexCount()
	})
	if total == 0 {
		t.Fatal("tree construction registered no indexes")
	}
	// Populate and probe: single-tuple updates of every relation build
	// the indexes of their siblings.
	rnd := rand.New(rand.NewSource(17))
	for _, u := range randomStream(rnd, chainRels, 300) {
		if err := tr.ApplyUpdates([]Update{u}); err != nil {
			t.Fatal(err)
		}
	}
	built := 0
	eachMap(tr, func(_ string, m *relation.Map[int64]) { built += len(m.IndexDumps()) })
	if built == 0 {
		t.Fatal("maintenance built no index; the reload below would prove nothing")
	}
	data := map[string][]value.Tuple{
		"R": {value.T(1, 2), value.T(7, 2)}, "S": {value.T(2, 3)}, "T": {value.T(3, 4), value.T(3, 5), value.T(3, 5)},
	}
	if err := tr.Init(data); err != nil {
		t.Fatal(err)
	}
	fresh := build()
	if err := fresh.Init(data); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if got, want := treeState(tr), treeState(fresh); got != want {
			t.Fatalf("%s: reloaded tree differs from a fresh load:\n%s\nvs\n%s", when, got, want)
		}
		eachMap(tr, func(name string, m *relation.Map[int64]) {
			if m.IndexCount() != registered[name] {
				t.Fatalf("%s: %s has %d registered indexes, had %d", when, name, m.IndexCount(), registered[name])
			}
			if err := m.VerifyIndexes(); err != nil {
				t.Fatalf("%s: %s: %v", when, name, err)
			}
		})
	}
	check("after Init")
	for _, u := range []Update{{Rel: "S", Tuple: value.T(2, 3), Mult: -1}, {Rel: "R", Tuple: value.T(9, 2), Mult: 1}, {Rel: "S", Tuple: value.T(2, 3), Mult: 1}} {
		if err := tr.ApplyUpdates([]Update{u}); err != nil {
			t.Fatal(err)
		}
		if err := fresh.ApplyUpdates([]Update{u}); err != nil {
			t.Fatal(err)
		}
		check("after " + u.Rel + " update")
	}
}

// TestIndexedDeltaMatchesRecompute: incrementally maintained views
// (which run Step's index probes and the index-maintaining merges)
// must stay bit-identical to a from-scratch bulk load of the same live
// data — the strongest end-to-end check that index probes see exactly
// the live entries.
func TestIndexedDeltaMatchesRecompute(t *testing.T) {
	build := func() *Tree[int64] {
		tr, err := New(Spec[int64]{Ring: ring.Ints{}, Relations: chainRels, Free: []string{"B"}})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	inc := build()
	rnd := rand.New(rand.NewSource(11))
	live := map[string][]value.Tuple{}
	ups := randomStream(rnd, chainRels, 500)
	for i, u := range ups {
		if err := inc.ApplyUpdates(ups[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if u.Mult > 0 {
			live[u.Rel] = append(live[u.Rel], u.Tuple)
		} else {
			l := live[u.Rel]
			for j, tp := range l {
				if tp.Equal(u.Tuple) {
					live[u.Rel] = append(l[:j], l[j+1:]...)
					break
				}
			}
		}
		if i%100 != 99 {
			continue
		}
		ref := build()
		if err := ref.Init(live); err != nil {
			t.Fatal(err)
		}
		if got, want := treeState(inc), treeState(ref); got != want {
			t.Fatalf("after %d updates, incremental state diverged from recompute:\n%s\nvs\n%s", i+1, got, want)
		}
	}
}

// TestIndexedSnapshotRoundTrip: restoring a snapshot reloads the
// sources and re-derives the views — into a fresh tree and into a
// populated, probed one alike; maintenance after the restore must still
// run on consistent indexes.
func TestIndexedSnapshotRoundTrip(t *testing.T) {
	build := func() *Tree[int64] {
		tr, err := New(Spec[int64]{Ring: ring.Ints{}, Relations: chainRels})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := build()
	rnd := rand.New(rand.NewSource(5))
	if err := a.ApplyUpdates(randomStream(rnd, chainRels, 200)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf, ring.IntCodec{}); err != nil {
		t.Fatal(err)
	}
	b, c := build(), build()
	for _, u := range randomStream(rand.New(rand.NewSource(6)), chainRels, 200) {
		if err := c.ApplyUpdates([]Update{u}); err != nil { // unrelated contents, built indexes
			t.Fatal(err)
		}
	}
	for _, tr := range []*Tree[int64]{b, c} {
		if err := tr.ReadSnapshot(bytes.NewReader(buf.Bytes()), ring.IntCodec{}); err != nil {
			t.Fatal(err)
		}
	}
	same := func(when string) {
		t.Helper()
		sa, sb, sc := treeState(a), treeState(b), treeState(c)
		if sa != sb || sb != sc {
			t.Fatalf("%s: original, fresh restore and restore over old contents differ:\n%s\nvs\n%s\nvs\n%s", when, sa, sb, sc)
		}
		eachMap(c, func(name string, m *relation.Map[int64]) {
			if err := m.VerifyIndexes(); err != nil {
				t.Fatalf("%s: %s: %v", when, name, err)
			}
		})
	}
	same("after restore")
	// Post-restore maintenance exercises the surviving indexes.
	more := randomStream(rnd, chainRels, 200)
	for _, tr := range []*Tree[int64]{a, b, c} {
		if err := tr.ApplyUpdates(more); err != nil {
			t.Fatal(err)
		}
	}
	same("after post-restore maintenance")
}
