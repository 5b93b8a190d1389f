package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/view"
)

// testBatch synthesizes batch i for rel: a couple of inserts and a
// delete, with tuples that exercise ints, floats, and strings.
func testBatch(rel string, i int) []view.Update {
	return []view.Update{
		{Rel: rel, Tuple: value.T(i, float64(i)+0.5, fmt.Sprintf("k%d", i%7)), Mult: 1},
		{Rel: rel, Tuple: value.T(i+1, 2.0, "x"), Mult: 3},
		{Rel: rel, Tuple: value.T(i, float64(i)+0.5, "gone"), Mult: -1},
	}
}

// appendBatches opens a WAL at dir, appends n batches to each of rels,
// and closes it again.
func appendBatches(t *testing.T, cfg Config, rels []string, n int) {
	t.Helper()
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range rels {
		sh, err := w.Shard(rel)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := sh.AppendRefs(testBatch(rel, i), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayAll collects every replayed batch keyed by relation.
func replayAll(t *testing.T, w *WAL) (map[string][][]view.Update, ReplayStats) {
	t.Helper()
	got := make(map[string][][]view.Update)
	st, err := w.Replay(func(rel string, seq uint64, ups []view.Update) error {
		cp := make([]view.Update, len(ups))
		copy(cp, ups)
		got[rel] = append(got[rel], cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: PolicyOff}
	appendBatches(t, cfg, []string{"R", "S"}, 10)

	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got, st := replayAll(t, w)
	if st.Batches != 20 || st.Updates != 60 {
		t.Fatalf("replayed %d batches / %d updates, want 20 / 60", st.Batches, st.Updates)
	}
	for _, rel := range []string{"R", "S"} {
		if len(got[rel]) != 10 {
			t.Fatalf("shard %s replayed %d batches, want 10", rel, len(got[rel]))
		}
		for i, ups := range got[rel] {
			want := testBatch(rel, i)
			if len(ups) != len(want) {
				t.Fatalf("%s batch %d: %d updates, want %d", rel, i, len(ups), len(want))
			}
			for j := range ups {
				if ups[j].Rel != want[j].Rel || ups[j].Mult != want[j].Mult || ups[j].Tuple.Encode() != want[j].Tuple.Encode() {
					t.Fatalf("%s batch %d update %d: got %+v want %+v", rel, i, j, ups[j], want[j])
				}
			}
		}
	}
	pos := w.RecoveredPositions()
	if pos.Shards["R"] != 10 || pos.Shards["S"] != 10 || pos.Applied != 60 || pos.Batches != 20 {
		t.Fatalf("recovered positions %+v", pos)
	}
}

// Appends resume the sequence where the previous process stopped, so a
// reopen-append-reopen cycle replays one contiguous stream.
func TestAppendContinuesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: PolicyOff}
	appendBatches(t, cfg, []string{"R"}, 5)
	appendBatches(t, cfg, []string{"R"}, 5) // seqs 6..10

	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var seqs []uint64
	if _, err := w.Replay(func(rel string, seq uint64, ups []view.Update) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 10 {
		t.Fatalf("replayed %d batches, want 10", len(seqs))
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("seqs[%d] = %d, want contiguous from 1", i, seq)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: PolicyOff, SegmentBytes: 256}
	appendBatches(t, cfg, []string{"R"}, 50)

	segs, _, err := listSegments(filepath.Join(dir, shardsDirName, "R"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("got %d segments with a 256-byte rotation size, want several", len(segs))
	}
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Stats().Segments; got != int64(len(segs)) {
		t.Fatalf("Stats().Segments = %d, want %d", got, len(segs))
	}
	_, st := replayAll(t, w)
	if st.Batches != 50 {
		t.Fatalf("replayed %d batches across segments, want 50", st.Batches)
	}
}

func TestCheckpointPrunesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: PolicyOff, SegmentBytes: 256}
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := w.Shard("R")
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	for i := 0; i < 50; i++ {
		if lastSeq, err = sh.AppendRefs(testBatch("R", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	before, _, _ := listSegments(filepath.Join(dir, shardsDirName, "R"))
	pos := Positions{Shards: map[string]uint64{"R": lastSeq}, Applied: 150, Batches: 50}
	snapBody := "pretend-engine-snapshot"
	if err := w.WriteCheckpoint(pos, func(out io.Writer) error {
		_, err := io.WriteString(out, snapBody)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	after, _, _ := listSegments(filepath.Join(dir, shardsDirName, "R"))
	if len(after) != 1 {
		t.Fatalf("checkpoint covering everything left %d segments (from %d), want 1 (the active one)", len(after), len(before))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the checkpoint is selected, its snapshot readable, and
	// replay past its positions is empty.
	w2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	cp := w2.Checkpoint()
	if cp == nil {
		t.Fatal("no checkpoint found after reopen")
	}
	if cp.Positions.Shards["R"] != lastSeq || cp.Positions.Applied != 150 {
		t.Fatalf("checkpoint positions %+v", cp.Positions)
	}
	r, err := cp.Open()
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(r)
	r.Close()
	if err != nil || string(b) != snapBody {
		t.Fatalf("checkpoint snapshot = %q (%v), want %q", b, err, snapBody)
	}
	_, st := replayAll(t, w2)
	if st.Batches != 0 {
		t.Fatalf("replayed %d batches past a covering checkpoint, want 0", st.Batches)
	}
}

func TestCheckpointPruningKeepsN(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, Fsync: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= 5; i++ {
		pos := Positions{Shards: map[string]uint64{}, Applied: uint64(i)}
		if err := w.WriteCheckpoint(pos, func(out io.Writer) error {
			_, err := fmt.Fprintf(out, "snap%d", i)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ckptExt) {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("%d checkpoints on disk, want the newest 2", n)
	}
	if cp := w.Checkpoint(); cp == nil || cp.Positions.Applied != 5 {
		t.Fatalf("newest checkpoint %+v, want Applied=5", cp)
	}
}

// A corrupt newest checkpoint falls back to the previous one, and new
// checkpoints never reuse the tainted sequence number.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, Fsync: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		pos := Positions{Shards: map[string]uint64{}, Applied: uint64(i)}
		if err := w.WriteCheckpoint(pos, func(out io.Writer) error {
			_, err := fmt.Fprintf(out, "snap%d", i)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	newest := w.Checkpoint()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, newest.Path, 12) // somewhere in the positions header

	w2, err := Open(Config{Dir: dir, Fsync: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	cp := w2.Checkpoint()
	if cp == nil || cp.Positions.Applied != 1 {
		t.Fatalf("fallback checkpoint %+v, want the older one (Applied=1)", cp)
	}
	if err := w2.WriteCheckpoint(Positions{Shards: map[string]uint64{}, Applied: 3}, func(out io.Writer) error {
		_, err := io.WriteString(out, "snap3")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := w2.Checkpoint().Seq; got <= newest.Seq {
		t.Fatalf("new checkpoint seq %d reuses or precedes the tainted %d", got, newest.Seq)
	}
}

// WriteFileAtomic leaves either the old or the complete new content.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "v1")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A failing write callback must not clobber the existing file.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("want error from failing write callback")
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "v1" {
		t.Fatalf("file = %q (%v), want untouched %q", b, err, "v1")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp file left behind: %v", entries)
	}
}

// TestAppendSteadyStateAllocs pins the zero-allocation append: once the
// per-shard record and tuple-encode buffers are warm, logging a batch
// under the interval fsync policy allocates nothing on the appender's
// goroutine (the satellite guarantee that the WAL does not perturb the
// batcher hot path).
func TestAppendSteadyStateAllocs(t *testing.T) {
	w, err := Open(Config{
		Dir:           t.TempDir(),
		Fsync:         PolicyInterval,
		FsyncInterval: time.Hour, // keep the background sync out of the measurement window
		SegmentBytes:  1 << 30,   // no rotation mid-measurement
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sh, err := w.Shard("R")
	if err != nil {
		t.Fatal(err)
	}
	ups := testBatch("R", 42)
	if _, err := sh.AppendRefs(ups, nil); err != nil { // warm buffers + open the segment
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := sh.AppendRefs(ups, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state AppendRefs allocates %.1f per batch, want 0", allocs)
	}
}

func TestShardNameValidation(t *testing.T) {
	w, err := Open(Config{Dir: t.TempDir(), Fsync: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, bad := range []string{"", ".", "..", "a/b", `a\b`, ".hidden"} {
		if _, err := w.Shard(bad); err == nil {
			t.Errorf("Shard(%q) accepted a name unusable as a directory", bad)
		}
	}
}

// flipByte XORs one byte of a file in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
