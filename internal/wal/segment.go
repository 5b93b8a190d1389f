package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/view"
)

const (
	shardsDirName = "shards"
	segmentMagic  = "FIVMWAL1"
	segmentExt    = ".seg"
)

// WriteFile is the subset of *os.File the appender needs; crash tests
// substitute fault-injecting implementations through Config.OpenSegment.
type WriteFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Shard is one relation's append handle: an append-only sequence of
// segment files with strictly increasing batch sequence numbers.
// Appends are serialized by an internal mutex (contended only by the
// background fsync loop — each shard has a single appending goroutine).
type Shard struct {
	w   *WAL
	rel string
	dir string

	mu      sync.Mutex
	f       WriteFile
	size    int64
	nextSeq uint64
	dirty   bool
	err     error  // sticky: a failed append poisons the shard
	buf     []byte // reusable record buffer (header + payload)
	kbuf    []byte // reusable tuple-encode scratch
}

// Append logs one coalesced update batch and returns its sequence
// number. Under PolicyAlways the record is fsynced before Append
// returns. A write failure is sticky: the shard refuses further appends
// with the same error, and the caller must treat the pipeline as
// crashed (recovery will replay the intact prefix).
//
// The steady-state append allocates nothing: the record is encoded into
// a per-shard buffer reused across calls and handed to the file in one
// Write.
func (s *Shard) Append(ups []view.Update) (uint64, error) {
	return s.AppendRefs(ups, nil)
}

// AppendRefs is Append with the batch IDs the record carries: each ref
// names one identified client batch whose updates are (contiguously)
// part of ups. The refs ride a trailer inside the same record, so the
// dedup fact "this batch is applied" becomes durable atomically with
// the batch itself — there is no window where one is on disk without
// the other.
func (s *Shard) AppendRefs(ups []view.Update, refs []BatchRef) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	seq := s.nextSeq
	buf := appendBatchPayload(s.buf[:recordHeaderLen], seq, ups, refs, &s.kbuf)
	s.buf = buf
	payload := buf[recordHeaderLen:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	if s.f == nil || (s.size > 0 && s.size+int64(len(buf)) > s.w.cfg.SegmentBytes) {
		if err := s.rotate(seq); err != nil {
			s.err = err
			return 0, err
		}
	}
	n, err := s.f.Write(buf)
	s.size += int64(n)
	if err != nil {
		s.err = fmt.Errorf("wal: appending to shard %s: %w", s.rel, err)
		return 0, s.err
	}
	s.dirty = true
	s.nextSeq = seq + 1
	s.w.appendedBatches.Add(1)
	s.w.appendedBytes.Add(uint64(len(buf)))
	if s.w.cfg.Fsync == PolicyAlways {
		if err := s.syncLocked(); err != nil {
			s.err = err
			return 0, err
		}
	}
	return seq, nil
}

// rotate closes the active segment (syncing it unless PolicyOff) and
// opens a fresh one named by the sequence number of its first batch.
func (s *Shard) rotate(firstSeq uint64) error {
	if s.f != nil {
		if s.dirty && s.w.cfg.Fsync != PolicyOff {
			if err := s.syncLocked(); err != nil {
				return err
			}
		}
		if err := s.f.Close(); err != nil {
			return fmt.Errorf("wal: closing segment of shard %s: %w", s.rel, err)
		}
		s.f = nil
	}
	path := filepath.Join(s.dir, segmentName(firstSeq))
	f, err := s.w.cfg.OpenSegment(path)
	if err != nil {
		return fmt.Errorf("wal: opening segment %s: %w", path, err)
	}
	hdr := segmentHeader(s.rel)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header %s: %w", path, err)
	}
	s.f = f
	s.size = int64(len(hdr))
	s.dirty = true
	s.w.segLive.Add(1)
	if s.w.cfg.Fsync != PolicyOff {
		// Make the file's existence durable: a segment that vanishes
		// with the directory entry on power loss would tear the log at
		// a record boundary, which recovery tolerates, but cheap
		// insurance keeps the common case lossless.
		if err := SyncDir(s.dir); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes the active segment if it has unsynced writes. The
// background interval loop and Close call it; PolicyAlways appends sync
// inline instead.
func (s *Shard) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.f == nil || !s.dirty {
		return nil
	}
	if err := s.syncLocked(); err != nil {
		s.err = err
		return err
	}
	return nil
}

func (s *Shard) syncLocked() error {
	t0 := time.Now()
	err := s.f.Sync()
	if obs := s.w.fsyncObs; obs != nil {
		obs(time.Since(t0).Seconds())
	}
	if err != nil {
		return fmt.Errorf("wal: fsync shard %s: %w", s.rel, err)
	}
	s.dirty = false
	return nil
}

func (s *Shard) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	var first error
	if s.dirty && s.err == nil && s.w.cfg.Fsync != PolicyOff {
		first = s.syncLocked()
	}
	if err := s.f.Close(); err != nil && first == nil {
		first = err
	}
	s.f = nil
	return first
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%016x%s", firstSeq, segmentExt)
}

// listSegments returns a shard directory's segment files sorted by
// first sequence number (ascending).
func listSegments(dir string) (paths []string, firstSeqs []uint64, err error) {
	return listNumbered(dir, "", segmentExt)
}

// listNumbered returns the files in dir named prefix, a hex number and
// ext, sorted by that number (ascending). Other files are left alone.
func listNumbered(dir, prefix, ext string) (paths []string, nums []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type file struct {
		path string
		num  uint64
	}
	var files []file
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
			continue
		}
		if num, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), ext), 16, 64); err == nil {
			files = append(files, file{filepath.Join(dir, name), num})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].num < files[j].num })
	for _, f := range files {
		paths = append(paths, f.path)
		nums = append(nums, f.num)
	}
	return paths, nums, nil
}

// checkSegmentFormats returns the formatError of the first segment in
// dir written in another format. Open calls it for every shard before
// openShard truncates or removes anything.
func checkSegmentFormats(dir string) error {
	paths, _, err := listSegments(dir)
	if err != nil {
		return err
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = readSegmentMagic(f)
		f.Close()
		var fe *formatError
		if errors.As(err, &fe) {
			return err
		}
	}
	return nil
}

// openShard scans one shard's segments at Open time, enforcing the
// log's structural invariant — contiguous, strictly increasing
// sequence numbers — and truncating at the first violation: the torn
// file is cut back to its valid prefix (removed entirely if nothing
// valid remains) and all later segments are deleted, since a gap can
// never be replayed past. This is the only mutating step of recovery.
func (w *WAL) openShard(rel string) (*Shard, error) {
	dir := filepath.Join(w.cfg.Dir, shardsDirName, rel)
	paths, firstSeqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	nextSeq := uint64(1)
	cut := len(paths) // index of the first segment to delete
	for i, path := range paths {
		if i > 0 && firstSeqs[i] != nextSeq {
			// A segment that does not continue the sequence (gap or
			// overlap) is unreachable history; drop it and everything
			// after.
			cut = i
			break
		}
		validEnd, lastSeq, failure, err := scanSegment(path, rel, firstSeqs[i])
		if err != nil {
			return nil, err
		}
		if failure != "" {
			if err := truncateSegment(w, path, validEnd, lastSeq >= firstSeqs[i]); err != nil {
				return nil, err
			}
			if lastSeq >= firstSeqs[i] {
				nextSeq = lastSeq + 1
				cut = i + 1
			} else {
				cut = i
			}
			break
		}
		if lastSeq >= firstSeqs[i] {
			nextSeq = lastSeq + 1
		} else {
			// A segment with a valid header but zero records (crash
			// between create and first append): remove it so a future
			// segment can reuse the name.
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			w.removedSegments.Add(1)
			continue
		}
	}
	live := int64(0)
	for i, path := range paths {
		if i >= cut {
			if _, statErr := os.Stat(path); statErr == nil {
				if err := os.Remove(path); err != nil {
					return nil, err
				}
				w.removedSegments.Add(1)
			}
			continue
		}
		if _, statErr := os.Stat(path); statErr == nil {
			live++
		}
	}
	w.segLive.Add(live)
	return &Shard{w: w, rel: rel, dir: dir, nextSeq: nextSeq, buf: make([]byte, recordHeaderLen, 1024)}, nil
}

// scanSegment walks a segment validating framing, checksums, payload
// decodability, and sequence continuity starting at wantSeq. It returns
// the byte offset of the valid prefix's end, the last valid sequence
// number (wantSeq-1 when none), and a non-empty failure description if
// the walk stopped before clean EOF.
func scanSegment(path, rel string, wantSeq uint64) (validEnd int64, lastSeq uint64, failure string, err error) {
	r, err := openSegmentReader(path, rel)
	if err != nil {
		// An unreadable header means nothing in the file is usable.
		return 0, wantSeq - 1, fmt.Sprintf("unreadable segment header: %v", err), nil
	}
	defer r.close()
	lastSeq = wantSeq - 1
	for {
		// r.off only advances past CRC-valid records; capture it before
		// reading so a decode/sequence failure (which the reader has
		// already stepped over) still reports the prefix end correctly.
		off := r.off
		payload, ok := r.next()
		if !ok {
			return r.off, lastSeq, r.failure, nil
		}
		seq, _, _, derr := decodeBatchPayload(payload, rel)
		if derr != nil {
			return off, lastSeq, derr.Error(), nil
		}
		if seq != lastSeq+1 {
			return off, lastSeq, fmt.Sprintf("sequence jump %d -> %d", lastSeq, seq), nil
		}
		lastSeq = seq
	}
}

// truncateSegment cuts a torn segment back to validEnd bytes, or
// removes it when keep is false (no valid records).
func truncateSegment(w *WAL, path string, validEnd int64, keep bool) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if !keep {
		w.truncatedBytes.Add(uint64(fi.Size()))
		w.removedSegments.Add(1)
		return os.Remove(path)
	}
	if fi.Size() > validEnd {
		w.truncatedBytes.Add(uint64(fi.Size() - validEnd))
		if err := os.Truncate(path, validEnd); err != nil {
			return err
		}
	}
	return nil
}

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	Batches uint64
	Updates uint64
}

// Replay feeds every logged batch past the recovered positions to
// apply, in per-shard sequence order (shards iterate in sorted name
// order; cross-shard interleaving is immaterial because delta
// application commutes across relations). Open has already truncated
// torn tails, so replay reads a clean log; should the files change
// underneath anyway, a newly-torn record stops that shard's replay at
// the last intact batch, mirroring Open's tolerance. apply errors abort
// the replay.
func (w *WAL) Replay(apply func(rel string, seq uint64, ups []view.Update) error) (ReplayStats, error) {
	var st ReplayStats
	for _, rel := range w.shardNames() {
		w.mu.Lock()
		from := w.recovered.Shards[rel]
		w.mu.Unlock()
		n, u, err := w.replayShard(rel, from, apply)
		st.Batches += n
		st.Updates += u
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

func (w *WAL) replayShard(rel string, from uint64, apply func(string, uint64, []view.Update) error) (batches, updates uint64, err error) {
	dir := filepath.Join(w.cfg.Dir, shardsDirName, rel)
	paths, firstSeqs, err := listSegments(dir)
	if err != nil {
		return 0, 0, err
	}
	for i, path := range paths {
		// Skip segments fully covered by the checkpoint: every record
		// of segment i is below the next segment's first sequence.
		if i+1 < len(paths) && firstSeqs[i+1] <= from+1 {
			continue
		}
		r, err := openSegmentReader(path, rel)
		if err != nil {
			return batches, updates, nil // header torn underneath us: stop this shard
		}
		for {
			payload, ok := r.next()
			if !ok {
				break
			}
			seq, ups, refs, derr := decodeBatchPayload(payload, rel)
			if derr != nil {
				r.close()
				return batches, updates, nil
			}
			if seq <= from {
				continue
			}
			if err := apply(rel, seq, ups); err != nil {
				r.close()
				return batches, updates, fmt.Errorf("wal: replaying %s batch %d: %w", rel, seq, err)
			}
			batches++
			updates += uint64(len(ups))
			w.mu.Lock()
			w.recovered.Shards[rel] = seq
			w.recovered.Applied += uint64(len(ups))
			w.recovered.Batches++
			for _, ref := range refs {
				w.recoveredRefs = append(w.recoveredRefs, RecoveredRef{Rel: rel, BatchRef: ref})
			}
			if len(w.recoveredRefs) > maxRecoveredRefs {
				// Keep the newest half: old refs belong to long-acked
				// batches whose retry window has expired.
				w.recoveredRefs = append(w.recoveredRefs[:0], w.recoveredRefs[len(w.recoveredRefs)-maxRecoveredRefs/2:]...)
			}
			w.mu.Unlock()
		}
		failed := r.failure != ""
		r.close()
		if failed {
			return batches, updates, nil
		}
	}
	return batches, updates, nil
}
