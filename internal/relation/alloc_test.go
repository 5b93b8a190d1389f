package relation

import (
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
)

// TestArenaRecyclesAnnihilatedEntries drives an insert/cancel cycle and
// checks the annihilated entry struct is reused by the next insert —
// the delete-heavy-stream property the arena exists for.
func TestArenaRecyclesAnnihilatedEntries(t *testing.T) {
	z := ring.Ints{}
	m := New[int64](s("A"))
	m.Merge(z, value.T(1), 3)
	e1 := m.data[value.T(1).Encode()]
	m.Merge(z, value.T(1), -3) // annihilate
	if m.Len() != 0 {
		t.Fatal("entry not removed on cancellation")
	}
	if len(m.arena.free) != 1 {
		t.Fatalf("free list has %d entries, want 1", len(m.arena.free))
	}
	if e1.tuple != nil || e1.payload != 0 {
		t.Fatal("recycled entry still pins tuple/payload")
	}
	m.Merge(z, value.T(2), 7)
	e2 := m.data[value.T(2).Encode()]
	if e1 != e2 {
		t.Fatal("fresh insert did not reuse the recycled entry")
	}
	if len(m.arena.free) != 0 {
		t.Fatal("free list not drained by reuse")
	}
	if got, _ := m.Get(value.T(2)); got != 7 {
		t.Fatalf("reused entry payload = %d", got)
	}
}

// TestArenaResetRecyclesOwnedEntries: Reset on an owning map parks all
// its entries; the refill reuses them without growing the slab.
func TestArenaResetRecyclesOwnedEntries(t *testing.T) {
	z := ring.Ints{}
	m := New[int64](s("A"))
	for i := 0; i < 20; i++ {
		m.Merge(z, value.T(int64(i)), 1)
	}
	m.Reset()
	if len(m.arena.free) != 20 {
		t.Fatalf("free list has %d entries after Reset, want 20", len(m.arena.free))
	}
	slabLeft := len(m.arena.slab)
	for i := 0; i < 20; i++ {
		m.Merge(z, value.T(int64(100+i)), 1)
	}
	if len(m.arena.slab) != slabLeft {
		t.Fatal("refill carved fresh slab entries instead of reusing recycled ones")
	}
	if m.Len() != 20 {
		t.Fatalf("refilled Len = %d", m.Len())
	}
}

// TestResetLeavesOnlyClearedEntries: a Reset map is what the view tree
// keeps between calls as a step buffer, so it must pin nothing of the
// delta it held — the table is empty and every entry parked in the
// arena, recycled or never used, references no tuple and no payload.
func TestResetLeavesOnlyClearedEntries(t *testing.T) {
	var cr ring.RangedCovarRing
	left, right := New[*ring.RangedCovar](s("A", "B")), New[*ring.RangedCovar](s("B", "C"))
	for i := 0; i < 40; i++ {
		left.Merge(cr, value.T(int64(i), int64(i%4)), cr.One())
		right.Merge(cr, value.T(int64(i%4), int64(i)), cr.One())
	}
	buf := New[*ring.RangedCovar](s("A"))
	plan := PlanStep([]value.Schema{left.schema, right.schema}, 0, buf.schema, "")
	for round := 0; round < 2; round++ {
		if Step(plan, cr, []*Map[*ring.RangedCovar]{left, right}, nil, buf).Len() != 40 {
			t.Fatalf("round %d: step filled %d groups", round, buf.Len())
		}
		buf.Reset()
		if buf.Len() != 0 || len(buf.arena.free) != 40 {
			t.Fatalf("round %d: Reset left %d tuples, %d parked entries", round, buf.Len(), len(buf.arena.free))
		}
		for _, e := range buf.arena.free {
			if e.tuple != nil || e.payload != nil || e.shared {
				t.Fatalf("round %d: a recycled entry still references %v / %v", round, e.tuple, e.payload)
			}
		}
		for i := range buf.arena.slab {
			if e := &buf.arena.slab[i]; e.tuple != nil || e.payload != nil {
				t.Fatalf("round %d: an unused slab entry references %v / %v", round, e.tuple, e.payload)
			}
		}
	}
}

// TestArenaIndexConsistencyUnderChurn hammers an indexed map with
// inserts and annihilations (exercising postings recycling) and
// verifies the index against the primary contents throughout.
func TestArenaIndexConsistencyUnderChurn(t *testing.T) {
	z := ring.Ints{}
	m := New[int64](s("A", "B"))
	m.AddIndex([]int{1})
	m.Merge(z, value.T(int64(-1), int64(0)), 1)
	// Force the lazy build through the probe path (the probed side must
	// be non-empty or the join short-circuits before ensure).
	d := New[int64](s("B", "C"))
	d.Merge(z, value.T(int64(0), int64(0)), 1)
	Join(z, d, m)
	m.Merge(z, value.T(int64(-1), int64(0)), -1)
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			m.Merge(z, value.T(int64(round*10+i), int64(i%3)), 1)
		}
		// Annihilate every other tuple of the round.
		for i := 0; i < 10; i += 2 {
			m.Merge(z, value.T(int64(round*10+i), int64(i%3)), -1)
		}
		if err := m.VerifyIndexes(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if m.Len() != 50*5 {
		t.Fatalf("Len = %d", m.Len())
	}
	dumps := m.IndexDumps()
	if len(dumps) != 1 {
		t.Fatalf("IndexDumps returned %d indexes, want 1", len(dumps))
	}
}

// TestVerifyIndexesCatchesCorruption plants a deliberate inconsistency
// and checks VerifyIndexes reports it (guarding the guard).
func TestVerifyIndexesCatchesCorruption(t *testing.T) {
	z := ring.Ints{}
	m := New[int64](s("A", "B"))
	m.AddIndex([]int{1})
	m.indexes[0].ensure(m)
	m.Merge(z, value.T(int64(1), int64(2)), 1)
	m.Merge(z, value.T(int64(2), int64(2)), 1)
	if err := m.VerifyIndexes(); err != nil {
		t.Fatalf("consistent index flagged: %v", err)
	}
	// Corrupt: drop one entry from pos.
	for e := range m.indexes[0].pos {
		delete(m.indexes[0].pos, e)
		break
	}
	if err := m.VerifyIndexes(); err == nil {
		t.Fatal("corrupted index passed verification")
	}
}
