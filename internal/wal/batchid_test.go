package wal

import (
	"testing"

	"repro/internal/value"
	"repro/internal/view"
)

func TestBatchIDStringRoundTrip(t *testing.T) {
	id := BatchID{Seq: 42}
	copy(id.Origin[:], []byte("0123456789abcdef"))
	got, err := ParseBatchID(id.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != id {
		t.Fatalf("round trip = %v, want %v", got, id)
	}
	for _, bad := range []string{"", "deadbeef-1", id.String()[:33], "zz" + id.String()[2:],
		"00000000000000000000000000000000-0", "00000000000000000000000000000000-x"} {
		if _, err := ParseBatchID(bad); err == nil {
			t.Errorf("ParseBatchID(%q) unexpectedly succeeded", bad)
		}
	}
}

// TestBatchRefRecovery proves the idempotency layer's durability story:
// refs appended with a record come back from Replay, and records written
// without refs (the legacy format) replay cleanly as zero refs.
func TestBatchRefRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, Fsync: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := w.Shard("R")
	if err != nil {
		t.Fatal(err)
	}
	ups := []view.Update{{Rel: "R", Tuple: value.T(1, 2), Mult: 1}, {Rel: "R", Tuple: value.T(3, 4), Mult: -1}}
	id1 := BatchID{Origin: [16]byte{1}, Seq: 7}
	id2 := BatchID{Origin: [16]byte{2}, Seq: 1}
	if _, err := sh.AppendRefs(ups, []BatchRef{{ID: id1, Updates: 1}, {ID: id2, Updates: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.AppendRefs(ups[:1], nil); err != nil { // legacy: no refs
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(Config{Dir: dir, Fsync: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var replayed int
	if _, err := w2.Replay(func(rel string, seq uint64, u []view.Update) error {
		replayed += len(u)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if replayed != 3 {
		t.Fatalf("replayed %d updates, want 3", replayed)
	}
	refs := w2.RecoveredBatchRefs()
	if len(refs) != 2 {
		t.Fatalf("recovered %d refs, want 2: %v", len(refs), refs)
	}
	want := []RecoveredRef{
		{Rel: "R", BatchRef: BatchRef{ID: id1, Updates: 1}},
		{Rel: "R", BatchRef: BatchRef{ID: id2, Updates: 1}},
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("ref[%d] = %+v, want %+v", i, refs[i], want[i])
		}
	}
}
