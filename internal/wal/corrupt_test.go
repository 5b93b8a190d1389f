package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/view"
)

// recordOffsets returns the byte offset of every record header in a
// segment plus the offset of clean EOF, by walking the same reader
// recovery uses.
func recordOffsets(t *testing.T, path, rel string) []int64 {
	t.Helper()
	r, err := openSegmentReader(path, rel)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	offs := []int64{r.off}
	for {
		if _, ok := r.next(); !ok {
			if r.failure != "" {
				t.Fatalf("baseline segment already corrupt: %s", r.failure)
			}
			return offs
		}
		offs = append(offs, r.off)
	}
}

// TestCorruptionMatrix damages a five-batch segment at every record
// boundary class — torn header, torn payload, flipped payload byte,
// flipped length field, garbage tail — at both the final record and a
// middle record, and asserts recovery (a) never errors or panics,
// (b) replays exactly the batches before the first damage, and
// (c) resumes appending at the next sequence number so a subsequent
// recovery replays one contiguous stream.
func TestCorruptionMatrix(t *testing.T) {
	const batches = 5
	seed := t.TempDir()
	appendBatches(t, Config{Dir: seed, Fsync: PolicyOff}, []string{"R"}, batches)
	seedSeg := filepath.Join(seed, shardsDirName, "R", segmentName(1))
	offs := recordOffsets(t, seedSeg, "R")
	if len(offs) != batches+1 {
		t.Fatalf("baseline has %d records, want %d", len(offs)-1, batches)
	}

	type corruption struct {
		name    string
		damage  func(t *testing.T, path string)
		survive int // batches recovery must replay
	}
	cases := []corruption{
		{"torn-header-last", func(t *testing.T, path string) {
			// Crash after 3 bytes of the last record's header.
			truncateAt(t, path, offs[batches-1]+3)
		}, batches - 1},
		{"torn-payload-last", func(t *testing.T, path string) {
			// Crash mid-payload of the last record.
			truncateAt(t, path, offs[batches-1]+recordHeaderLen+5)
		}, batches - 1},
		{"flip-payload-last", func(t *testing.T, path string) {
			// Bit rot inside the last record's payload: CRC mismatch.
			flipByte(t, path, offs[batches-1]+recordHeaderLen+2)
		}, batches - 1},
		{"flip-length-last", func(t *testing.T, path string) {
			// Bit rot in the length field: reframes or overruns the file.
			flipByte(t, path, offs[batches-1])
		}, batches - 1},
		{"flip-crc-last", func(t *testing.T, path string) {
			flipByte(t, path, offs[batches-1]+4)
		}, batches - 1},
		{"garbage-tail", func(t *testing.T, path string) {
			// Junk past the last intact record (e.g. reused disk blocks).
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
				t.Fatal(err)
			}
		}, batches},
		{"flip-payload-middle", func(t *testing.T, path string) {
			// Damage in the middle: everything after it is unreachable
			// even though later records are intact (sequence continuity
			// cannot be trusted past a hole).
			flipByte(t, path, offs[2]+recordHeaderLen+2)
		}, 2},
		{"torn-header-middle", func(t *testing.T, path string) {
			truncateAt(t, path, offs[2]+1)
		}, 2},
		{"sequence-gap", func(t *testing.T, path string) {
			// A framing-valid record whose sequence skips ahead: replay
			// must stop before it, not apply out-of-order history.
			appendRawRecord(t, path, uint64(batches+3), testBatch("R", 99))
		}, batches},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, shardsDirName, "R"), 0o755); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, shardsDirName, "R", segmentName(1))
			copyFile(t, seedSeg, seg)
			tc.damage(t, seg)

			cfg := Config{Dir: dir, Fsync: PolicyOff}
			w, err := Open(cfg)
			if err != nil {
				t.Fatalf("Open on damaged log: %v", err)
			}
			var seqs []uint64
			if _, err := w.Replay(func(rel string, seq uint64, ups []view.Update) error {
				seqs = append(seqs, seq)
				return nil
			}); err != nil {
				t.Fatalf("Replay on damaged log: %v", err)
			}
			if len(seqs) != tc.survive {
				t.Fatalf("recovered %d batches, want exactly %d (the prefix before the damage)", len(seqs), tc.survive)
			}
			for i, seq := range seqs {
				if seq != uint64(i+1) {
					t.Fatalf("replayed seqs %v, want contiguous from 1", seqs)
				}
			}
			// The log must accept appends again, continuing the sequence.
			sh, err := w.Shard("R")
			if err != nil {
				t.Fatal(err)
			}
			seq, err := sh.AppendRefs(testBatch("R", 100), nil)
			if err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if want := uint64(tc.survive + 1); seq != want {
				t.Fatalf("append after recovery got seq %d, want %d", seq, want)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			// And a second recovery replays the healed, contiguous log.
			w2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			n := 0
			if _, err := w2.Replay(func(rel string, seq uint64, ups []view.Update) error {
				n++
				if seq != uint64(n) {
					t.Fatalf("healed log seq %d at batch %d", seq, n)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if n != tc.survive+1 {
				t.Fatalf("healed log replays %d batches, want %d", n, tc.survive+1)
			}
		})
	}
}

// TestTruncatedHeaderRemovesSegment covers the crash window between
// segment creation and the first full header write: the stub file is
// removed so the name is reusable.
func TestTruncatedHeaderRemovesSegment(t *testing.T) {
	dir := t.TempDir()
	appendBatches(t, Config{Dir: dir, Fsync: PolicyOff}, []string{"R"}, 3)
	// A second segment whose header was torn mid-write.
	stub := filepath.Join(dir, shardsDirName, "R", segmentName(4))
	if err := os.WriteFile(stub, []byte(segmentMagic[:4]), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(Config{Dir: dir, Fsync: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := os.Stat(stub); !os.IsNotExist(err) {
		t.Fatalf("torn-header segment still on disk (stat err %v)", err)
	}
	sh, err := w.Shard("R")
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := sh.AppendRefs(testBatch("R", 10), nil); err != nil || seq != 4 {
		t.Fatalf("append after stub removal: seq %d err %v, want 4 nil", seq, err)
	}
}

// TestLaterSegmentsAfterTearAreDropped pins that a tear in segment k
// discards segments k+1... even if they are individually intact — a
// sequence hole can never be replayed past.
func TestLaterSegmentsAfterTearAreDropped(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: PolicyOff, SegmentBytes: 256}
	appendBatches(t, cfg, []string{"R"}, 30)
	paths, _, err := listSegments(filepath.Join(dir, shardsDirName, "R"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(paths))
	}
	// Corrupt the first record of the middle segment.
	mid := paths[len(paths)/2]
	offs := recordOffsets(t, mid, "R")
	flipByte(t, mid, offs[0]+recordHeaderLen)

	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	left, _, err := listSegments(filepath.Join(dir, shardsDirName, "R"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range left {
		if p >= mid {
			t.Fatalf("segment %s at or past the damaged one survived recovery: %v", p, left)
		}
	}
	var last uint64
	if _, err := w.Replay(func(rel string, seq uint64, ups []view.Update) error {
		last = seq
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sh, err := w.Shard("R")
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := sh.AppendRefs(testBatch("R", 50), nil); err != nil || seq != last+1 {
		t.Fatalf("append resumed at %d (err %v), want %d", seq, err, last+1)
	}
}

func truncateAt(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// appendRawRecord appends a framing-valid record with an arbitrary
// sequence number — only tests can forge the out-of-order history the
// sequence-continuity check exists to reject.
func appendRawRecord(t *testing.T, path string, seq uint64, ups []view.Update) {
	t.Helper()
	var kbuf []byte
	buf := make([]byte, recordHeaderLen)
	buf = appendBatchPayload(buf, seq, ups, nil, &kbuf)
	payload := buf[recordHeaderLen:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
}
