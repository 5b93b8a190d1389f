package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/value"
	"repro/internal/view"
)

// Record framing: u32le payload length | u32le CRC32C(payload) | payload.
const (
	recordHeaderLen = 8
	// maxRecordLen bounds the length field before anything is
	// allocated, so a corrupt header cannot demand gigabytes.
	maxRecordLen = 1 << 30
)

// castagnoli is the CRC32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendBatchPayload appends the batch payload (seq, update count, then
// per update: length-prefixed tuple key and zigzag multiplicity, then
// an optional batch-ref trailer) to buf. kbuf is the caller's reusable
// tuple-encode scratch; both buffers grow to a steady state, so
// hot-path appends allocate nothing.
//
// The trailer — uvarint ref count, then per ref the raw 16-byte origin,
// uvarint sequence, and uvarint update count — sits after the updates,
// where decoders that predate it never look (they read exactly count
// updates and stop), so old and new records interoperate both ways: an
// absent trailer decodes as zero refs.
func appendBatchPayload(buf []byte, seq uint64, ups []view.Update, refs []BatchRef, kbuf *[]byte) []byte {
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(ups)))
	for i := range ups {
		k := ups[i].Tuple.AppendEncode((*kbuf)[:0])
		*kbuf = k
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendVarint(buf, int64(ups[i].Mult))
	}
	if len(refs) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(refs)))
		for i := range refs {
			buf = append(buf, refs[i].ID.Origin[:]...)
			buf = binary.AppendUvarint(buf, refs[i].ID.Seq)
			buf = binary.AppendUvarint(buf, uint64(refs[i].Updates))
		}
	}
	return buf
}

// decodeBatchPayload parses a CRC-validated payload back into updates
// and batch refs for rel. Errors indicate a framing-valid but
// undecodable payload — recovery treats them like corruption and stops.
func decodeBatchPayload(p []byte, rel string) (seq uint64, ups []view.Update, refs []BatchRef, err error) {
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("wal: truncated batch sequence number")
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("wal: truncated batch update count")
	}
	p = p[n:]
	if count > uint64(len(p)) { // every update takes >= 1 byte
		return 0, nil, nil, fmt.Errorf("wal: batch claims %d updates in %d payload bytes", count, len(p))
	}
	ups = make([]view.Update, 0, count)
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(p)
		if n <= 0 || klen > uint64(len(p)-n) {
			return 0, nil, nil, fmt.Errorf("wal: truncated tuple key in batch %d", seq)
		}
		p = p[n:]
		tp, err := value.DecodeTuple(string(p[:klen]))
		if err != nil {
			return 0, nil, nil, fmt.Errorf("wal: batch %d: %w", seq, err)
		}
		p = p[klen:]
		mult, n := binary.Varint(p)
		if n <= 0 {
			return 0, nil, nil, fmt.Errorf("wal: truncated multiplicity in batch %d", seq)
		}
		p = p[n:]
		ups = append(ups, view.Update{Rel: rel, Tuple: tp, Mult: int(mult)})
	}
	// Pre-trailer records end exactly here; zero refs is their meaning.
	if len(p) == 0 {
		return seq, ups, nil, nil
	}
	nRefs, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("wal: truncated batch-ref count in batch %d", seq)
	}
	p = p[n:]
	if nRefs > uint64(len(p)/17+1) { // every ref takes >= 16+1+1 bytes
		return 0, nil, nil, fmt.Errorf("wal: batch %d claims %d refs in %d trailer bytes", seq, nRefs, len(p))
	}
	refs = make([]BatchRef, 0, nRefs)
	for i := uint64(0); i < nRefs; i++ {
		var ref BatchRef
		if len(p) < 16 {
			return 0, nil, nil, fmt.Errorf("wal: truncated batch-ref origin in batch %d", seq)
		}
		copy(ref.ID.Origin[:], p[:16])
		p = p[16:]
		ref.ID.Seq, n = binary.Uvarint(p)
		if n <= 0 {
			return 0, nil, nil, fmt.Errorf("wal: truncated batch-ref sequence in batch %d", seq)
		}
		p = p[n:]
		u, n := binary.Uvarint(p)
		if n <= 0 || u > count {
			return 0, nil, nil, fmt.Errorf("wal: bad batch-ref update count in batch %d", seq)
		}
		p = p[n:]
		ref.Updates = int(u)
		refs = append(refs, ref)
	}
	return seq, ups, refs, nil
}

// segmentReader iterates a segment file's records. Any framing,
// checksum, or decode failure surfaces as a recoverable stop (ok=false
// with the failure recorded), never a panic: a torn tail is the
// expected crash artifact.
type segmentReader struct {
	f   *os.File
	rel string
	// off is the file offset of the NEXT record header — after a clean
	// iteration it marks the end of the valid prefix.
	off int64
	hdr [recordHeaderLen]byte
	buf []byte
	// failure describes why iteration stopped early ("" = clean EOF).
	failure string
}

// openSegmentReader validates the segment header (magic + relation) and
// positions the reader at the first record.
func openSegmentReader(path, rel string) (*segmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdrLen, err := checkSegmentHeader(f, rel)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &segmentReader{f: f, rel: rel, off: hdrLen}, nil
}

// segmentHeader is the header a segment of rel starts with:
// magic | uvarint len(rel) | rel.
func segmentHeader(rel string) []byte {
	return append(binary.AppendUvarint([]byte(segmentMagic), uint64(len(rel))), rel...)
}

// checkSegmentHeader reads the header of a segment of rel and returns
// its length.
func checkSegmentHeader(f *os.File, rel string) (int64, error) {
	if err := readSegmentMagic(f); err != nil {
		return 0, err
	}
	want := segmentHeader(rel)[len(segmentMagic):]
	got := make([]byte, len(want))
	if _, err := io.ReadFull(f, got); err != nil {
		return 0, fmt.Errorf("wal: segment header: %w", err)
	}
	if !bytes.Equal(got, want) {
		return 0, fmt.Errorf("wal: segment header %q does not name relation %q", got, rel)
	}
	return int64(len(segmentMagic) + len(want)), nil
}

// readSegmentMagic consumes a segment's magic. A magic cut short is a
// torn create; a whole one that is not segmentMagic is a formatError.
func readSegmentMagic(f *os.File) error {
	magic := make([]byte, len(segmentMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return fmt.Errorf("wal: segment header: %w", err)
	}
	if string(magic) == segmentMagic {
		return nil
	}
	msg := fmt.Sprintf("not a segment file (magic %q)", magic)
	if prefix := segmentMagic[:len(segmentMagic)-1]; string(magic[:len(prefix)]) == prefix {
		msg = fmt.Sprintf("unsupported segment version %c", magic[len(prefix)])
	}
	return &formatError{f.Name(), msg}
}

// next reads one record's payload. ok=false means iteration is over —
// clean EOF when failure is empty, otherwise the first invalid record
// (r.off stays at the valid prefix's end either way). The returned
// payload aliases an internal buffer reused by the next call.
func (r *segmentReader) next() (payload []byte, ok bool) {
	if _, err := io.ReadFull(r.f, r.hdr[:]); err != nil {
		if err != io.EOF {
			r.failure = fmt.Sprintf("torn record header at offset %d: %v", r.off, err)
		}
		return nil, false
	}
	plen := binary.LittleEndian.Uint32(r.hdr[0:4])
	wantCRC := binary.LittleEndian.Uint32(r.hdr[4:8])
	if plen > maxRecordLen {
		r.failure = fmt.Sprintf("record at offset %d claims %d payload bytes", r.off, plen)
		return nil, false
	}
	if cap(r.buf) < int(plen) {
		r.buf = make([]byte, plen)
	}
	r.buf = r.buf[:plen]
	if _, err := io.ReadFull(r.f, r.buf); err != nil {
		r.failure = fmt.Sprintf("torn record payload at offset %d: %v", r.off, err)
		return nil, false
	}
	if got := crc32.Checksum(r.buf, castagnoli); got != wantCRC {
		r.failure = fmt.Sprintf("record at offset %d fails CRC (got %08x, want %08x)", r.off, got, wantCRC)
		return nil, false
	}
	r.off += recordHeaderLen + int64(plen)
	return r.buf, true
}

func (r *segmentReader) close() error { return r.f.Close() }
