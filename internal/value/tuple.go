package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Tuple is an ordered sequence of values. Tuples are positional; the
// attribute names live in the companion Schema.
type Tuple []Value

// T is a convenience constructor for tuples from a mixed argument list.
// Supported argument types: int, int64, float64, string, Value, nil.
func T(vs ...any) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case nil:
			t[i] = Null()
		case int:
			t[i] = Int(int64(x))
		case int64:
			t[i] = Int(x)
		case float64:
			t[i] = Float(x)
		case string:
			t[i] = String(x)
		case Value:
			t[i] = x
		default:
			panic(fmt.Sprintf("value.T: unsupported argument type %T", v))
		}
	}
	return t
}

// Equal reports whether two tuples have the same length and pairwise
// equal values.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically by Value.Compare; shorter
// prefixes order first.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	}
	return 0
}

// Concat returns a fresh tuple holding t followed by o.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	return append(out, o...)
}

// Project returns the sub-tuple at the given positions.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Encoding tags. The tuple encoding is self-describing: each value is a
// one-byte tag followed by a fixed or length-prefixed body, so encoded
// tuples concatenate and decode without a schema. Concatenation of
// encodings equals encoding of concatenation, which the relational ring
// relies on for its product.
const (
	tagNull   byte = 0x00
	tagInt    byte = 0x01
	tagFloat  byte = 0x02
	tagString byte = 0x03
)

// EncodedLen returns the number of bytes Encode will produce.
func (t Tuple) EncodedLen() int {
	n := 0
	for _, v := range t {
		switch v.kind {
		case KindNull:
			n++
		case KindInt, KindFloat:
			n += 9
		case KindString:
			n += 1 + binary.MaxVarintLen32 + len(v.s) // upper bound
		}
	}
	return n
}

// appendValue appends the self-describing encoding of one value to buf.
func appendValue(buf []byte, v Value) []byte {
	var tmp [8]byte
	switch v.kind {
	case KindNull:
		buf = append(buf, tagNull)
	case KindInt:
		buf = append(buf, tagInt)
		binary.BigEndian.PutUint64(tmp[:], uint64(v.i))
		buf = append(buf, tmp[:]...)
	case KindFloat:
		buf = append(buf, tagFloat)
		binary.BigEndian.PutUint64(tmp[:], math.Float64bits(v.f))
		buf = append(buf, tmp[:]...)
	case KindString:
		buf = append(buf, tagString)
		var lv [binary.MaxVarintLen32]byte
		n := binary.PutUvarint(lv[:], uint64(len(v.s)))
		buf = append(buf, lv[:n]...)
		buf = append(buf, v.s...)
	}
	return buf
}

// AppendEncode appends the encoding of the single value v to buf — the
// per-value form of Tuple.AppendEncode, for callers that assemble a key
// from values scattered across several tuples (e.g. a join output).
func (v Value) AppendEncode(buf []byte) []byte {
	return appendValue(buf, v)
}

// AppendEncode appends the tuple's encoding to buf and returns the
// extended buffer. It is the allocation-free core of Encode: hot paths
// keep one scratch buffer per loop, encode with AppendEncode(buf[:0]),
// look maps up with string(buf) (which Go compiles without copying),
// and materialize a real key string only when inserting.
func (t Tuple) AppendEncode(buf []byte) []byte {
	for _, v := range t {
		buf = appendValue(buf, v)
	}
	return buf
}

// Encode serializes the tuple into a compact self-describing key string
// suitable for Go map indexing.
func (t Tuple) Encode() string {
	return string(t.AppendEncode(make([]byte, 0, t.EncodedLen())))
}

// DecodeTuple parses a key string produced by Encode (or by concatenating
// such encodings) back into a tuple. It returns an error on malformed
// input.
func DecodeTuple(key string) (Tuple, error) {
	var t Tuple
	b := []byte(key)
	for len(b) > 0 {
		tag := b[0]
		b = b[1:]
		switch tag {
		case tagNull:
			t = append(t, Null())
		case tagInt:
			if len(b) < 8 {
				return nil, fmt.Errorf("value: truncated INT in key")
			}
			t = append(t, Int(int64(binary.BigEndian.Uint64(b[:8]))))
			b = b[8:]
		case tagFloat:
			if len(b) < 8 {
				return nil, fmt.Errorf("value: truncated DOUBLE in key")
			}
			t = append(t, Float(math.Float64frombits(binary.BigEndian.Uint64(b[:8]))))
			b = b[8:]
		case tagString:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("value: truncated VARCHAR in key")
			}
			t = append(t, String(string(b[n:n+int(l)])))
			b = b[n+int(l):]
		default:
			return nil, fmt.Errorf("value: unknown tag 0x%02x in key", tag)
		}
	}
	return t, nil
}

// EncodedValueLen returns the length of the first value's encoding in
// key, so a caller can cut a concatenated key into its per-value parts
// without decoding them. It returns an error on an empty or malformed
// prefix.
func EncodedValueLen(key []byte) (int, error) {
	if len(key) == 0 {
		return 0, fmt.Errorf("value: empty key has no first value")
	}
	switch key[0] {
	case tagNull:
		return 1, nil
	case tagInt, tagFloat:
		if len(key) < 9 {
			return 0, fmt.Errorf("value: truncated number in key")
		}
		return 9, nil
	case tagString:
		l, n := binary.Uvarint(key[1:])
		if n <= 0 || uint64(len(key)-1-n) < l {
			return 0, fmt.Errorf("value: truncated VARCHAR in key")
		}
		return 1 + n + int(l), nil
	}
	return 0, fmt.Errorf("value: unknown tag 0x%02x in key", key[0])
}

// MustDecodeTuple is DecodeTuple that panics on malformed input; for use
// on keys that are known to be valid encodings (e.g. produced internally).
func MustDecodeTuple(key string) Tuple {
	t, err := DecodeTuple(key)
	if err != nil {
		panic(err)
	}
	return t
}

// AppendEncodeProject appends the encoding of t's projection onto the
// given positions to buf without materializing the projected tuple —
// the hot path of group-by aggregation. It appends exactly what
// t.Project(idx).Encode() returns (see AppendEncode for the
// zero-allocation lookup idiom).
func (t Tuple) AppendEncodeProject(buf []byte, idx []int) []byte {
	for _, j := range idx {
		buf = appendValue(buf, t[j])
	}
	return buf
}
