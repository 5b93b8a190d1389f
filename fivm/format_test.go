package fivm_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/fivm"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/wal"
)

// TestFormatsRefuseOtherVersions: each of FIVMSNAP, FIVMPART, FIVMCKPT
// and the FIVMWAL1 segment has one version, the one this build writes.
// A stream this build wrote, with its version changed, is refused by
// name, and the engine or WAL directory it was read into is left as it
// was. So is a snapshot that ends right after its magic, and a WAL
// file whose whole magic is another format's: intact, it is not torn,
// so recovery must not skip or delete it.
func TestFormatsRefuseOtherVersions(t *testing.T) {
	cfg := fivm.Config{Relations: openRels(), Query: "SELECT A, SUM(1) FROM R NATURAL JOIN S GROUP BY A"}
	src := open[fivm.AnyEngine](t, cfg)
	if err := src.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	var snap, part bytes.Buffer
	if err := src.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := src.WritePartial(&part); err != nil {
		t.Fatal(err)
	}
	const magicLen = 8
	withVersion := func(b []byte, v byte) []byte {
		b = bytes.Clone(b)
		b[magicLen] = v
		return b
	}

	type row struct {
		name, want string
		// path is the file a refusal names, "" for a stream.
		path  string
		state func() string
		read  func() error
	}
	// intoEngine reads stream into an engine holding another database
	// than src's.
	intoEngine := func(name, want string, read func(fivm.AnyEngine, io.Reader) error, stream []byte) row {
		e := open[fivm.AnyEngine](t, cfg)
		if err := e.Init(toyData()); err != nil {
			t.Fatal(err)
		}
		if err := e.Apply([]view.Update{{Rel: "R", Tuple: value.T("a1", 9), Mult: 1}}); err != nil {
			t.Fatal(err)
		}
		return row{name: name, want: want,
			state: func() string { return snapshotState(t, e) },
			read:  func() error { return read(e, bytes.NewReader(stream)) }}
	}
	restore := func(e fivm.AnyEngine, r io.Reader) error { return e.ReadSnapshot(r) }
	merge := func(e fivm.AnyEngine, r io.Reader) error {
		_, err := e.MergePartials([]io.Reader{r})
		return err
	}
	// inWAL opens a WAL directory holding src's checkpoint and batches on
	// either side of it, after edit has changed the first file pattern
	// matches there.
	inWAL := func(name, want, pattern string, edit func([]byte)) row {
		dir := t.TempDir()
		walOf(t, dir, src)
		path := firstFile(t, dir, pattern)
		rewrite(t, path, edit)
		return row{name: name, want: want, path: path,
			state: func() string { return dirState(t, dir) },
			read: func() error {
				w, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.PolicyOff})
				if err == nil {
					w.Close()
				}
				return err
			}}
	}

	for _, c := range []row{
		intoEngine("FIVMSNAP older", "unsupported snapshot version 2", restore, withVersion(snap.Bytes(), 2)),
		intoEngine("FIVMSNAP newer", "unsupported snapshot version 4", restore, withVersion(snap.Bytes(), 4)),
		intoEngine("FIVMSNAP cut after magic", "view: reading snapshot header: EOF", restore, snap.Bytes()[:magicLen]),
		intoEngine("FIVMPART", "unsupported partial version 2", merge, withVersion(part.Bytes(), 2)),
		inWAL("FIVMCKPT", "unsupported checkpoint version 2", "checkpoint-*.ckpt", func(b []byte) {
			b[magicLen] = 2
			resum(b)
		}),
		inWAL("FIVMCKPT of another format", "not a checkpoint", "checkpoint-*.ckpt", func(b []byte) {
			copy(b, "NOTACKPT")
			resum(b)
		}),
		inWAL("FIVMWAL1", "unsupported segment version 2", "shards/R/*.seg", func(b []byte) { b[magicLen-1] = '2' }),
		inWAL("FIVMWAL1 of another format", "not a segment file", "shards/R/*.seg", func(b []byte) { copy(b, "NOTAWAL1") }),
	} {
		before := c.state()
		err := c.read()
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), c.path) {
			t.Errorf("%s: err = %v, want it to say %q and name %q", c.name, err, c.want, c.path)
		}
		if c.state() != before {
			t.Errorf("%s: the refused stream changed what it was read into", c.name)
		}
	}
}

// walOf fills dir with a WAL of two segments of relation R and a
// checkpoint holding eng's snapshot that covers the first segment's
// batches.
func walOf(t *testing.T, dir string, eng fivm.AnyEngine) {
	t.Helper()
	w, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.PolicyOff, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := w.Shard("R")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := sh.AppendRefs([]view.Update{{Rel: "R", Tuple: value.T(fmt.Sprintf("a%d", i), i), Mult: 1}}, nil); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			pos := wal.Positions{Shards: map[string]uint64{"R": 2}, Applied: 2, Batches: 2}
			if err := w.WriteCheckpoint(pos, eng.WriteSnapshot); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// resum recomputes a checkpoint's CRC after an edit, so the file is
// intact: its trailer is u32le CRC32C(everything before it) | "CKPTEND\n".
func resum(b []byte) {
	body := len(b) - 12
	binary.LittleEndian.PutUint32(b[body:], crc32.Checksum(b[:body], crc32.MakeTable(crc32.Castagnoli)))
}

// firstFile returns the first file under dir, in name order, that
// pattern matches.
func firstFile(t *testing.T, dir, pattern string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no %s in %s (err %v)", pattern, dir, err)
	}
	return paths[0]
}

// rewrite applies edit to the contents of the file at path.
func rewrite(t *testing.T, path string, edit func([]byte)) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edit(b)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirState lists every file under dir with its contents.
func dirState(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		fmt.Fprintf(&b, "%s %q\n", path, raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}
