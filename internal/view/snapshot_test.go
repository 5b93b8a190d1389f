package view_test

import (
	"bytes"
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

func TestSnapshotRoundTripInts(t *testing.T) {
	rels := figure1Rels()
	tr, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(figure1Data()); err != nil {
		t.Fatal(err)
	}
	// Mutate past the initial load so the snapshot captures maintenance
	// state too.
	if err := tr.ApplyUpdates(updates("R", 1, value.T("a3", 5))); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteSnapshot(&buf, ring.IntCodec{}); err != nil {
		t.Fatal(err)
	}

	restored, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadSnapshot(bytes.NewReader(buf.Bytes()), ring.IntCodec{}); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.ResultPayload(), tr.ResultPayload(); got != want {
		t.Errorf("restored result = %d, want %d", got, want)
	}
	// The restored tree keeps maintaining correctly.
	if err := restored.ApplyUpdates(updates("S", 1, value.T("a3", 1, 1))); err != nil {
		t.Fatal(err)
	}
	if err := tr.ApplyUpdates(updates("S", 1, value.T("a3", 1, 1))); err != nil {
		t.Fatal(err)
	}
	if restored.ResultPayload() != tr.ResultPayload() {
		t.Error("restored tree diverged after further updates")
	}
}

func TestSnapshotRoundTripRelCovar(t *testing.T) {
	rels := figure1Rels()
	r := ring.NewRelCovarRing(3)
	spec := view.Spec[*ring.RelCovar]{
		Ring: r, Relations: rels,
		Lifts: map[string]ring.Lift[*ring.RelCovar]{
			"B": r.LiftContinuous(0), "C": r.LiftCategorical(1), "D": r.LiftContinuous(2),
		},
	}
	tr, err := view.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(figure1Data()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	codec := ring.RelCovarCodec{Ring: r}
	if err := tr.WriteSnapshot(&buf, codec); err != nil {
		t.Fatal(err)
	}
	restored, err := view.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadSnapshot(bytes.NewReader(buf.Bytes()), codec); err != nil {
		t.Fatal(err)
	}
	if !restored.ResultPayload().Equal(tr.ResultPayload()) {
		t.Errorf("restored payload %v != original %v", restored.ResultPayload(), tr.ResultPayload())
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	rels := figure1Rels()
	tr, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Relations: rels})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(figure1Data()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteSnapshot(&buf, ring.IntCodec{}); err != nil {
		t.Fatal(err)
	}

	fresh := func() *view.Tree[int64] {
		f, err := view.New(view.Spec[int64]{Ring: ring.Ints{}, Relations: rels})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// Bad magic.
	bad := append([]byte("NOTASNAP"), buf.Bytes()[8:]...)
	if err := fresh().ReadSnapshot(bytes.NewReader(bad), ring.IntCodec{}); err == nil {
		t.Error("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte(nil), buf.Bytes()...)
	bad[8] = 99
	if err := fresh().ReadSnapshot(bytes.NewReader(bad), ring.IntCodec{}); err == nil {
		t.Error("bad version accepted")
	}
	// A crafted attribute count must error before anything is sized by
	// it: header | tag | relation count | name | attr count.
	at := 10 + int(buf.Bytes()[9]) + 1
	at += 1 + int(buf.Bytes()[at])
	bad = append(append([]byte(nil), buf.Bytes()[:at]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if err := fresh().ReadSnapshot(bytes.NewReader(bad), ring.IntCodec{}); err == nil {
		t.Error("2^63-attribute relation accepted")
	}
	// Truncation at every prefix must error, never panic.
	for cut := 0; cut < buf.Len(); cut += 7 {
		if err := fresh().ReadSnapshot(bytes.NewReader(buf.Bytes()[:cut]), ring.IntCodec{}); err == nil {
			t.Errorf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
	// Mismatched tree shape.
	other, err := view.New(view.Spec[int64]{
		Ring:      ring.Ints{},
		Relations: []vo.Rel{{Name: "X", Schema: value.NewSchema("A")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.ReadSnapshot(bytes.NewReader(buf.Bytes()), ring.IntCodec{}); err == nil {
		t.Error("snapshot restored into mismatched tree")
	}
}
