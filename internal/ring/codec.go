package ring

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/value"
)

// Codec serializes ring payloads for snapshots. Implementations must
// round-trip exactly: Decode(Encode(v)) is indistinguishable from v
// under the ring's operations.
type Codec[V any] interface {
	// Encode writes v to w.
	Encode(w io.Writer, v V) error
	// Decode reads one value from r.
	Decode(r io.Reader) (V, error)
}

// maxDecodeLen bounds length prefixes while decoding, rejecting
// corrupted or adversarial snapshots before allocating.
const maxDecodeLen = 1 << 30

func writeUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func readUvarint(r io.Reader) (uint64, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = &byteReader{r: r}
	}
	return binary.ReadUvarint(br)
}

type byteReader struct{ r io.Reader }

func (b *byteReader) ReadByte() (byte, error) {
	var buf [1]byte
	_, err := io.ReadFull(b.r, buf[:])
	return buf[0], err
}

func writeFloat(w io.Writer, f float64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(f))
	_, err := w.Write(buf[:])
	return err
}

func readFloat(r io.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(buf[:])), nil
}

// readBytes reads a length-prefixed string into buf's backing array,
// growing it in bounded steps so a corrupt length allocates no more
// than the stream really holds.
func readBytes(r io.Reader, buf []byte) ([]byte, error) {
	n, err := readUvarint(r)
	if err != nil {
		return buf, err
	}
	if n > maxDecodeLen {
		return buf, fmt.Errorf("ring: string length %d exceeds limit", n)
	}
	buf = buf[:0]
	for rest := int(n); rest > 0; {
		step := min(rest, 1<<16)
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if _, err := io.ReadFull(r, buf[len(buf)-step:]); err != nil {
			return buf, err
		}
		rest -= step
	}
	return buf, nil
}

// IntCodec serializes Z-ring payloads.
type IntCodec struct{}

// Encode writes v as a zig-zag varint.
func (IntCodec) Encode(w io.Writer, v int64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

// Decode reads a zig-zag varint.
func (IntCodec) Decode(r io.Reader) (int64, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = &byteReader{r: r}
	}
	return binary.ReadVarint(br)
}

// FloatCodec serializes float-ring payloads.
type FloatCodec struct{}

// Encode writes the IEEE-754 bits big-endian.
func (FloatCodec) Encode(w io.Writer, v float64) error { return writeFloat(w, v) }

// Decode reads 8 big-endian bytes.
func (FloatCodec) Decode(r io.Reader) (float64, error) { return readFloat(r) }

// RangedCovarCodec serializes ranged payloads of a degree-Degree ring.
// Ranges are self-describing, and every one must lie within [0, Degree):
// the degree bounds what a decode allocates, and Tag exposes it so a
// stream of another degree fails at the header.
type RangedCovarCodec struct{ Degree int }

// Tag names this codec configuration, including the degree.
func (c RangedCovarCodec) Tag() string { return fmt.Sprintf("ring.RangedCovarCodec[m=%d]", c.Degree) }

// Encode writes a presence flag, the range, and the flat components.
func (c RangedCovarCodec) Encode(w io.Writer, v *RangedCovar) error {
	if v == nil {
		return writeUvarint(w, 0)
	}
	if v.Start < 0 || v.Start+v.N > c.Degree {
		return fmt.Errorf("ring: encoding range [%d,%d) with degree-%d codec", v.Start, v.Start+v.N, c.Degree)
	}
	if err := writeUvarint(w, 1); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(v.Start)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(v.N)); err != nil {
		return err
	}
	if err := writeFloat(w, v.C); err != nil {
		return err
	}
	for _, x := range v.v {
		if err := writeFloat(w, x); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads one payload (nil for the zero flag). A range reaching
// past the degree is an error before anything is allocated, so a
// corrupt or foreign stream can neither overflow int nor drive the
// quadratic Q allocation.
func (c RangedCovarCodec) Decode(r io.Reader) (*RangedCovar, error) {
	flag, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if flag == 0 {
		return nil, nil
	}
	start, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	n, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if m := uint64(c.Degree); start > m || n > m-start {
		return nil, fmt.Errorf("ring: ranged payload of %d attributes from index %d exceeds degree %d", n, start, m)
	}
	out := newRanged(int(start), int(n))
	if out.C, err = readFloat(r); err != nil {
		return nil, err
	}
	for i := range out.v {
		if out.v[i], err = readFloat(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RelCovarCodec serializes generalized degree-m payloads. Its wire
// format depends on the degree, exposed via Tag.
type RelCovarCodec struct{ Ring RelCovarRing }

// Tag names this codec configuration, including the degree.
func (c RelCovarCodec) Tag() string { return fmt.Sprintf("ring.RelCovarCodec[m=%d]", c.Ring.m) }

// Encode writes a presence flag and then, slot by slot (c, s_0..s_m-1,
// the packed upper triangle of Q), the coefficient count followed by
// (concatenated tuple key, coefficient) pairs — the relational ring's
// wire form of each component, whatever the in-memory layout. The whole
// payload goes out in one Write.
func (c RelCovarCodec) Encode(w io.Writer, v *RelCovar) error {
	if v == nil {
		return writeUvarint(w, 0)
	}
	if v.m != c.Ring.m {
		return fmt.Errorf("ring: encoding degree-%d payload with degree-%d codec", v.m, c.Ring.m)
	}
	names := cats.snapshot()
	buf := binary.AppendUvarint(make([]byte, 0, 2+slotCount(v.m)+24*len(v.e)), 1)
	rest := v.e
	for slot := 0; slot < slotCount(v.m); slot++ {
		n := 0
		for n < len(rest) && rest[n].slot() == slot {
			n++
		}
		buf = binary.AppendUvarint(buf, uint64(n))
		for _, e := range rest[:n] {
			k1, k2 := names[e.part1()], names[e.part2()]
			buf = binary.AppendUvarint(buf, uint64(len(k1)+len(k2)))
			buf = append(append(buf, k1...), k2...)
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.v))
		}
		rest = rest[n:]
	}
	_, err := w.Write(buf)
	return err
}

// Decode reads one payload (nil for the zero flag). It keeps the ring's
// invariants whatever the stream holds: zero coefficients are dropped
// (a payload left with none decodes to nil), and a key the ring cannot
// produce — a count key with any part, an s key of more than one, a Q
// key of more than two, a key repeated within its slot, malformed
// bytes — is an error.
func (c RelCovarCodec) Decode(r io.Reader) (*RelCovar, error) {
	flag, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if flag == 0 {
		return nil, nil
	}
	m := c.Ring.m
	var e []coef
	var kbuf []byte
	for slot := 0; slot < slotCount(m); slot++ {
		n, err := readUvarint(r)
		if err != nil {
			return nil, err
		}
		if n > maxDecodeLen {
			return nil, fmt.Errorf("ring: relation size %d exceeds limit", n)
		}
		maxParts := 2
		if slot == 0 {
			maxParts = 0
		} else if slot <= m {
			maxParts = 1
		}
		for ; n > 0; n-- {
			if kbuf, err = readBytes(r, kbuf); err != nil {
				return nil, err
			}
			v, err := readFloat(r)
			if err != nil {
				return nil, err
			}
			p1, p2, err := internKey(kbuf, maxParts)
			if err != nil {
				return nil, fmt.Errorf("ring: slot %d of a degree-%d payload: %w", slot, m, err)
			}
			if v != 0 {
				e = append(e, coef{packKey(slot, p1, p2), v})
			}
		}
	}
	slices.SortFunc(e, byKey)
	for i := 1; i < len(e); i++ {
		if e[i].key == e[i-1].key {
			return nil, fmt.Errorf("ring: slot %d of a degree-%d payload repeats a key", e[i].slot(), m)
		}
	}
	return c.Ring.wrap(e), nil
}

// internKey cuts a concatenated tuple key into its single-value parts
// and returns their ids, left-packed as packKey expects. Nothing is
// interned unless the whole key is well-formed.
func internKey(key []byte, maxParts int) (p1, p2 CatID, err error) {
	var cut [2]int
	n := 0
	for rest := key; len(rest) > 0; n++ {
		if n == maxParts {
			return 0, 0, fmt.Errorf("key has more than %d parts", maxParts)
		}
		if cut[n], err = value.EncodedValueLen(rest); err != nil {
			return 0, 0, err
		}
		rest = rest[cut[n]:]
	}
	if n > 0 {
		p1, err = cats.intern(key[:cut[0]])
	}
	if n > 1 && err == nil {
		p2, err = cats.intern(key[cut[0]:])
	}
	return p1, p2, err
}

// BufferedEncode wraps enc in a bufio.Writer for callers doing many
// small writes; it flushes before returning.
func BufferedEncode[V any](w io.Writer, c Codec[V], vs []V) error {
	bw := bufio.NewWriter(w)
	for _, v := range vs {
		if err := c.Encode(bw, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}
