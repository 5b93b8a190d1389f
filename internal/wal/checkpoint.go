package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Checkpoint file format:
//
//	magic "FIVMCKPT" | version u8 |
//	uvarint nShards | per shard: uvarint len(rel) | rel | uvarint seq |
//	uvarint applied | uvarint batches |
//	engine snapshot bytes... |
//	trailer: u32le CRC32C(everything before the trailer) | "CKPTEND\n"
//
// The file is written atomically (temp + fsync + rename + dir fsync)
// and validated by a full-file CRC pass before recovery trusts it; a
// checkpoint that fails validation is skipped and the next-newest
// tried, which is why pruning keeps more than one. One that passes it
// but has another magic or version is refused (formatError), not
// skipped: skipping it would replay only what pruning left behind.

const (
	ckptMagic    = "FIVMCKPT"
	ckptTail     = "CKPTEND\n"
	ckptVersion  = 1
	ckptPrefix   = "checkpoint-"
	ckptExt      = ".ckpt"
	ckptTrailerN = 4 + len(ckptTail)
)

// CheckpointInfo describes one valid checkpoint on disk.
type CheckpointInfo struct {
	// Seq is the checkpoint's own sequence number (file naming order).
	Seq uint64
	// Positions is the log state the snapshot covers.
	Positions Positions
	// Path is the checkpoint file.
	Path string

	snapOff int64
	snapLen int64
}

// Open returns a reader over the embedded engine snapshot — the bytes
// to hand to the engine's ReadSnapshot.
func (ci *CheckpointInfo) Open() (io.ReadCloser, error) {
	f, err := os.Open(ci.Path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(ci.snapOff, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &sectionReadCloser{Reader: io.LimitReader(f, ci.snapLen), f: f}, nil
}

type sectionReadCloser struct {
	io.Reader
	f *os.File
}

func (s *sectionReadCloser) Close() error { return s.f.Close() }

// WriteCheckpoint atomically writes a new checkpoint holding the given
// positions and the engine snapshot produced by writeSnap, then prunes:
// segments fully covered by the positions are deleted (never a shard's
// newest segment) and checkpoints beyond keepCheckpoints are removed.
func (w *WAL) WriteCheckpoint(pos Positions, writeSnap func(io.Writer) error) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("wal: checkpoint refused: WAL is closed")
	}
	seq := w.cpSeq + 1
	w.mu.Unlock()
	path := filepath.Join(w.cfg.Dir, fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptExt))
	err := WriteFileAtomic(path, func(out io.Writer) error {
		cw := &crcWriter{w: out}
		if _, err := io.WriteString(cw, ckptMagic); err != nil {
			return err
		}
		if _, err := cw.Write([]byte{ckptVersion}); err != nil {
			return err
		}
		var buf []byte
		buf = binary.AppendUvarint(buf, uint64(len(pos.Shards)))
		rels := make([]string, 0, len(pos.Shards))
		for rel := range pos.Shards {
			rels = append(rels, rel)
		}
		sort.Strings(rels)
		for _, rel := range rels {
			buf = binary.AppendUvarint(buf, uint64(len(rel)))
			buf = append(buf, rel...)
			buf = binary.AppendUvarint(buf, pos.Shards[rel])
		}
		buf = binary.AppendUvarint(buf, pos.Applied)
		buf = binary.AppendUvarint(buf, pos.Batches)
		if _, err := cw.Write(buf); err != nil {
			return err
		}
		if err := writeSnap(cw); err != nil {
			return err
		}
		var trailer [ckptTrailerN]byte
		binary.LittleEndian.PutUint32(trailer[0:4], cw.crc)
		copy(trailer[4:], ckptTail)
		_, err := out.Write(trailer[:])
		return err
	})
	if err != nil {
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	info, err := parseCheckpoint(path, seq)
	if err != nil {
		return fmt.Errorf("wal: checkpoint failed self-validation: %w", err)
	}
	w.mu.Lock()
	w.cp = info
	w.cpSeq = seq
	w.mu.Unlock()
	w.cpSeqLive.Store(seq)
	w.cpAt.Store(time.Now().UnixNano())
	w.prune(pos)
	return nil
}

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// scanCheckpoints finds the newest checkpoint that validates, skipping
// corrupt ones, and the highest checkpoint sequence number present
// (valid or not — new checkpoints must not reuse a tainted name). An
// intact checkpoint of another format is an error.
func scanCheckpoints(dir string) (*CheckpointInfo, uint64, error) {
	paths, seqs, err := listNumbered(dir, ckptPrefix, ckptExt)
	if err != nil || len(paths) == 0 {
		return nil, 0, err
	}
	maxSeq := seqs[len(seqs)-1]
	for i := len(paths) - 1; i >= 0; i-- {
		info, err := parseCheckpoint(paths[i], seqs[i])
		if err == nil {
			return info, maxSeq, nil
		}
		var fe *formatError
		if errors.As(err, &fe) {
			return nil, 0, err
		}
	}
	return nil, maxSeq, nil
}

// parseCheckpoint validates a checkpoint file (full-content CRC against
// the trailer) and parses its header into a CheckpointInfo.
func parseCheckpoint(path string, seq uint64) (*CheckpointInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	minSize := int64(len(ckptMagic) + 1 + ckptTrailerN)
	if size < minSize {
		return nil, fmt.Errorf("wal: checkpoint %s too small (%d bytes)", path, size)
	}
	// Pass 1: whole-file CRC against the trailer.
	body := size - int64(ckptTrailerN)
	cw := &crcWriter{w: io.Discard}
	if _, err := io.CopyN(cw, f, body); err != nil {
		return nil, err
	}
	var trailer [ckptTrailerN]byte
	if _, err := io.ReadFull(f, trailer[:]); err != nil {
		return nil, err
	}
	if string(trailer[4:]) != ckptTail {
		return nil, fmt.Errorf("wal: checkpoint %s has no trailer (torn write?)", path)
	}
	if got, want := cw.crc, binary.LittleEndian.Uint32(trailer[0:4]); got != want {
		return nil, fmt.Errorf("wal: checkpoint %s fails CRC (got %08x, want %08x)", path, got, want)
	}
	// Pass 2: parse the header, tracking consumption to locate the
	// embedded snapshot.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	cr := &countReader{r: bufio.NewReader(f)}
	magic := make([]byte, len(ckptMagic))
	if err := cr.readFull(magic); err != nil {
		return nil, err
	}
	if string(magic) != ckptMagic {
		return nil, &formatError{path, fmt.Sprintf("not a checkpoint (magic %q)", magic)}
	}
	ver, err := cr.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != ckptVersion {
		return nil, &formatError{path, fmt.Sprintf("unsupported checkpoint version %d", ver)}
	}
	nShards, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, err
	}
	if nShards > 1<<20 {
		return nil, fmt.Errorf("wal: checkpoint claims %d shards", nShards)
	}
	pos := Positions{Shards: make(map[string]uint64, nShards)}
	for i := uint64(0); i < nShards; i++ {
		relLen, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, err
		}
		if relLen > 4096 {
			return nil, fmt.Errorf("wal: checkpoint shard name length %d exceeds limit", relLen)
		}
		rel := make([]byte, relLen)
		if err := cr.readFull(rel); err != nil {
			return nil, err
		}
		if pos.Shards[string(rel)], err = binary.ReadUvarint(cr); err != nil {
			return nil, err
		}
	}
	if pos.Applied, err = binary.ReadUvarint(cr); err != nil {
		return nil, err
	}
	if pos.Batches, err = binary.ReadUvarint(cr); err != nil {
		return nil, err
	}
	snapOff := cr.n
	snapLen := body - snapOff
	if snapLen < 0 {
		return nil, fmt.Errorf("wal: checkpoint %s header overruns the file", path)
	}
	return &CheckpointInfo{Seq: seq, Positions: pos, Path: path, snapOff: snapOff, snapLen: snapLen}, nil
}

// countReader counts consumed bytes so the header parser can locate the
// snapshot section without buffered lookahead lying about the position.
type countReader struct {
	r *bufio.Reader
	n int64
}

func (c *countReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func (c *countReader) readFull(p []byte) error {
	n, err := io.ReadFull(c.r, p)
	c.n += int64(n)
	return err
}

// keepCheckpoints is how many newest checkpoints survive pruning: the
// newest plus one fallback should a later recovery find it corrupt.
const keepCheckpoints = 2

// prune removes segments fully covered by the checkpointed positions
// and old checkpoints beyond keepCheckpoints. Best-effort: a file that
// cannot be removed stays for the next prune.
func (w *WAL) prune(pos Positions) {
	for _, rel := range w.shardNames() {
		covered := pos.Shards[rel]
		if covered == 0 {
			continue
		}
		dir := filepath.Join(w.cfg.Dir, shardsDirName, rel)
		paths, firstSeqs, err := listSegments(dir)
		if err != nil {
			continue
		}
		// Segment i's records all precede segment i+1's first sequence;
		// the newest segment is the active one and always survives.
		for i := 0; i+1 < len(paths); i++ {
			if firstSeqs[i+1] <= covered+1 {
				if os.Remove(paths[i]) == nil {
					w.segLive.Add(-1)
					w.removedSegments.Add(1)
				}
			}
		}
	}
	paths, _, err := listNumbered(w.cfg.Dir, ckptPrefix, ckptExt)
	if err != nil {
		return
	}
	for _, path := range paths[:max(0, len(paths)-keepCheckpoints)] {
		_ = os.Remove(path)
	}
}
