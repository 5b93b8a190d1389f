package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/value"
	"repro/internal/view"
)

// fixtureRecord is one batch testdata/Sales.seg holds.
type fixtureRecord struct {
	ups  []view.Update
	refs []BatchRef
}

// fixtureRecords are the recorded batches in append order: a plain
// record, then one carrying the batch-ID trailer.
func fixtureRecords() []fixtureRecord {
	var o [16]byte
	for i := range o {
		o[i] = byte(0xa0 + i)
	}
	return []fixtureRecord{
		{ups: []view.Update{
			{Rel: "Sales", Tuple: value.T(1, 2.5, "store-7"), Mult: 1},
			{Rel: "Sales", Tuple: value.T(-40, -0.125, ""), Mult: -3},
		}},
		{ups: []view.Update{
			{Rel: "Sales", Tuple: value.T(300, 1e10, "ünï"), Mult: 2},
			{Rel: "Sales", Tuple: value.T(0, 0.0, "x"), Mult: -1},
			{Rel: "Sales", Tuple: value.T(1, 2.5, "store-7"), Mult: -1},
		}, refs: []BatchRef{
			{ID: BatchID{Origin: o, Seq: 7}, Updates: 2},
			{ID: BatchID{Origin: o, Seq: 300}, Updates: 1},
		}},
	}
}

// TestRecordedSegmentStillReplays pins the WAL record format the way
// the FIVMSNAP/FIVMPART fixtures pin theirs: testdata/Sales.seg is one
// shard's segment written by an earlier commit (a record without refs,
// then one with refs, fsync off). A copy must replay through Open +
// Replay + RecoveredBatchRefs to exactly the recorded updates and refs, and
// appendBatchPayload must reproduce the file byte for byte.
func TestRecordedSegmentStillReplays(t *testing.T) {
	raw, err := os.ReadFile("testdata/Sales.seg")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	shardDir := filepath.Join(dir, shardsDirName, "Sales")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shardDir, segmentName(1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(Config{Dir: dir, Fsync: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if st := w.Stats(); st.TruncatedBytes != 0 || st.RemovedSegments != 0 {
		t.Fatalf("Open cut the recorded segment: %+v", st)
	}
	got, st := replayAll(t, w)
	recs := fixtureRecords()
	if st.Batches != 2 || st.Updates != 5 || len(got["Sales"]) != len(recs) {
		t.Fatalf("replayed %+v (%d batches), want 2 batches / 5 updates", st, len(got["Sales"]))
	}
	var wantRefs []RecoveredRef
	for i, rec := range recs {
		ups := got["Sales"][i]
		if len(ups) != len(rec.ups) {
			t.Fatalf("batch %d: %d updates, want %d", i+1, len(ups), len(rec.ups))
		}
		for j, u := range ups {
			// Encode distinguishes Int(0) from Float(0): the value kinds
			// must survive, not just compare equal.
			if want := rec.ups[j]; u.Rel != want.Rel || u.Mult != want.Mult || u.Tuple.Encode() != want.Tuple.Encode() {
				t.Fatalf("batch %d update %d: got %+v want %+v", i+1, j, u, want)
			}
		}
		for _, ref := range rec.refs {
			wantRefs = append(wantRefs, RecoveredRef{Rel: "Sales", BatchRef: ref})
		}
	}
	gotRefs := w.RecoveredBatchRefs()
	if len(gotRefs) != len(wantRefs) {
		t.Fatalf("recovered refs %+v, want %+v", gotRefs, wantRefs)
	}
	for i := range gotRefs {
		if gotRefs[i] != wantRefs[i] {
			t.Fatalf("recovered ref %d = %+v, want %+v", i, gotRefs[i], wantRefs[i])
		}
	}

	// The writer side: segment header, then per record the framing and
	// the payload appendBatchPayload builds today.
	enc := binary.AppendUvarint([]byte(segmentMagic), uint64(len("Sales")))
	enc = append(enc, "Sales"...)
	var kbuf []byte
	for i, rec := range recs {
		payload := appendBatchPayload(nil, uint64(i+1), rec.ups, rec.refs, &kbuf)
		enc = binary.LittleEndian.AppendUint32(enc, uint32(len(payload)))
		enc = binary.LittleEndian.AppendUint32(enc, crc32.Checksum(payload, castagnoli))
		enc = append(enc, payload...)
	}
	if !bytes.Equal(enc, raw) {
		t.Fatalf("appendBatchPayload no longer reproduces the recorded segment:\n got %x\nwant %x", enc, raw)
	}
}
