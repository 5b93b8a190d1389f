package view

import (
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/vo"
)

// TestBatchCoalescesInDelta: updates of one tuple inside a batch merge
// under the ring addition while the delta is built — an insert and a
// delete of the same tuple cancel before any view work. The annihilating
// pair builds an empty delta, and applying it changes nothing.
func TestBatchCoalescesInDelta(t *testing.T) {
	build := func() *Tree[int64] {
		tr, err := New(Spec[int64]{
			Ring:      ring.Ints{},
			Relations: []vo.Rel{{Name: "R", Schema: value.NewSchema("A", "B")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ups := []Update{
		{Rel: "R", Tuple: value.T(1, 1), Mult: 1},
		{Rel: "R", Tuple: value.T(1, 1), Mult: 1},
		{Rel: "R", Tuple: value.T(2, 2), Mult: 1},
		{Rel: "R", Tuple: value.T(1, 1), Mult: -1},
		{Rel: "R", Tuple: value.T(3, 3), Mult: 1},
		{Rel: "R", Tuple: value.T(3, 3), Mult: -1},
	}
	raw, co := build(), build()
	for i := range ups { // one update at a time: nothing coalesces
		if err := raw.ApplyUpdates(ups[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	d, err := co.DeltaFor("R", ups)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("delta holds %d tuples, want 2 (the (3,3) pair cancels): %v", d.Len(), d)
	}
	if err := co.ApplyDelta("R", d); err != nil {
		t.Fatal(err)
	}
	if r, c := treeState(raw), treeState(co); r != c {
		t.Fatalf("coalesced batch diverged from one-at-a-time:\n%s\nvs\n%s", c, r)
	}
	before := treeState(co)
	empty, err := co.DeltaFor("R", ups[4:])
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatalf("annihilating pair built a %d-tuple delta", empty.Len())
	}
	if err := co.ApplyDelta("R", empty); err != nil {
		t.Fatal(err)
	}
	if after := treeState(co); after != before {
		t.Fatalf("empty delta changed the tree:\n%s\nvs\n%s", after, before)
	}
}

// TestLargeMultiplicity: building a delta from a huge Mult must cost
// O(log Mult), not Mult ring additions — this would hang for minutes if
// the multiplicity were applied by repeated Merge.
func TestLargeMultiplicity(t *testing.T) {
	tr, err := New(Spec[int64]{
		Ring:      ring.Ints{},
		Relations: []vo.Rel{{Name: "R", Schema: value.NewSchema("A", "B")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const huge = 1 << 40
	d, err := tr.DeltaFor("R", []Update{
		{Rel: "R", Tuple: value.T(1, 2), Mult: huge},
		{Rel: "R", Tuple: value.T(3, 4), Mult: -3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Get(value.T(1, 2)); got != huge {
		t.Fatalf("delta payload = %d, want %d", got, int64(huge))
	}
	if got, _ := d.Get(value.T(3, 4)); got != -3 {
		t.Fatalf("delta payload = %d, want -3", got)
	}
	if err := tr.ApplyUpdates([]Update{{Rel: "R", Tuple: value.T(9, 9), Mult: huge}}); err != nil {
		t.Fatal(err)
	}
	if got := tr.ResultPayload(); got != huge {
		t.Fatalf("result = %d, want %d", got, int64(huge))
	}
}
