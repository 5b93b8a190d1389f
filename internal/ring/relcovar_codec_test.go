package ring

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// refEncode and refDecode are the RelCovarCodec of the map layout: a
// presence flag, then per component its coefficient count and its
// (key, coefficient) pairs, in map order.
func refEncode(v *refCovar) []byte {
	if v == nil {
		return []byte{0}
	}
	buf := []byte{1}
	for _, rel := range append(append([]RelVal{v.C}, v.S...), v.Q...) {
		buf = binary.AppendUvarint(buf, uint64(len(rel)))
		for k, c := range rel {
			buf = binary.AppendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c))
		}
	}
	return buf
}

func refDecode(t testing.TB, m int, b []byte) *refCovar {
	t.Helper()
	r := bytes.NewReader(b)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// readRel reads one component, dropping zero coefficients; an empty
	// one is nil.
	readRel := func() RelVal {
		n, err := readUvarint(r)
		must(err)
		var rel RelVal
		for ; n > 0; n-- {
			k, err := readBytes(r, nil)
			must(err)
			c, err := readFloat(r)
			must(err)
			if c != 0 {
				if rel == nil {
					rel = RelVal{}
				}
				rel[string(k)] = c
			}
		}
		return rel
	}
	flag, err := readUvarint(r)
	must(err)
	if flag == 0 {
		return nil
	}
	out := refOne(m)
	out.C = readRel()
	for _, rels := range [][]RelVal{out.S, out.Q} {
		for i := range rels {
			rels[i] = readRel()
		}
	}
	if r.Len() != 0 {
		t.Fatalf("reference decoder left %d bytes", r.Len())
	}
	return out
}

// TestRelCovarWireCompatibility: the flat layout changed nothing on the
// wire. Bytes from the new encoder load in the reference decoder, bytes
// from the reference encoder load in the new decoder, and both encoders
// write the same number of bytes (the map encoder's pair order is
// random, so the bytes themselves differ).
func TestRelCovarWireCompatibility(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	for _, m := range kernelDegrees {
		codec := RelCovarCodec{Ring: NewRelCovarRing(m)}
		for n := 0; n < 100; n++ {
			data := make([]byte, 96)
			rnd.Read(data)
			v, rv := (&pairGen{r: codec.Ring, data: data}).value()
			var buf bytes.Buffer
			if err := codec.Encode(&buf, v); err != nil {
				t.Fatal(err)
			}
			if d := agrees(v, refDecode(t, m, buf.Bytes())); d != "" {
				t.Fatalf("m=%d new encoder -> reference decoder: %s", m, d)
			}
			if refIsZero(rv) {
				continue // the map layout had a non-nil zero; the flat one has not
			}
			old := refEncode(rv)
			got, err := codec.Decode(bytes.NewReader(old))
			if err != nil {
				t.Fatalf("m=%d reference encoder -> new decoder: %v", m, err)
			}
			if d := agrees(got, rv); d != "" {
				t.Fatalf("m=%d reference encoder -> new decoder: %s", m, d)
			}
			if len(old) != buf.Len() {
				t.Fatalf("m=%d encodings differ in length: reference %d, new %d", m, len(old), buf.Len())
			}
		}
	}
}

// payloadBytes hand-assembles a degree-m payload from (slot, key,
// coefficient) triples, in the order given.
type wireCoef struct {
	slot int
	key  string
	v    float64
}

func payloadBytes(m int, coefs ...wireCoef) []byte {
	buf := []byte{1}
	for slot := 0; slot < slotCount(m); slot++ {
		var in []wireCoef
		for _, c := range coefs {
			if c.slot == slot {
				in = append(in, c)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(in)))
		for _, c := range in {
			buf = binary.AppendUvarint(buf, uint64(len(c.key)))
			buf = append(buf, c.key...)
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.v))
		}
	}
	return buf
}

// TestRelCovarDecodeKeepsRingInvariants: a crafted stream cannot plant
// what the ring forbids.
func TestRelCovarDecodeKeepsRingInvariants(t *testing.T) {
	const m = 2
	codec := RelCovarCodec{Ring: NewRelCovarRing(m)}
	a, b := value.T("a").Encode(), value.T("b").Encode()
	q01 := qSlot(m, 0, 1)

	got, err := codec.Decode(bytes.NewReader(payloadBytes(m,
		wireCoef{0, "", 2}, wireCoef{1, a, 0}, wireCoef{1, b, 3}, wireCoef{q01, a + b, 0})))
	if err != nil {
		t.Fatal(err)
	}
	want := &refCovar{m: m, C: RelVal{"": 2}, S: []RelVal{{b: 3}, nil}, Q: make([]RelVal, 3)}
	if d := agrees(got, want); d != "" {
		t.Errorf("zero coefficients not dropped: %s", d)
	}
	if got, err := codec.Decode(bytes.NewReader(payloadBytes(m, wireCoef{0, "", 0}, wireCoef{2, a, 0}))); err != nil || got != nil {
		t.Errorf("all-zero payload decoded to (%v, %v), want the nil zero", got, err)
	}
	if got, err := codec.Decode(bytes.NewReader(payloadBytes(m))); err != nil || got != nil {
		t.Errorf("empty payload decoded to (%v, %v), want the nil zero", got, err)
	}
	// Pairs arrive in any order and decode to the sorted layout.
	x, err := codec.Decode(bytes.NewReader(payloadBytes(m, wireCoef{1, b, 1}, wireCoef{1, a, 1}, wireCoef{0, "", 1})))
	if err != nil {
		t.Fatal(err)
	}
	y, err := codec.Decode(bytes.NewReader(payloadBytes(m, wireCoef{0, "", 1}, wireCoef{1, a, 1}, wireCoef{1, b, 1})))
	if err != nil || !x.Equal(y) {
		t.Errorf("pair order changed the decoded value: %v vs %v (%v)", x, y, err)
	}

	for name, stream := range map[string][]byte{
		"count key with a part":   payloadBytes(m, wireCoef{0, a, 1}),
		"s key of two parts":      payloadBytes(m, wireCoef{1, a + b, 1}),
		"Q key of three parts":    payloadBytes(m, wireCoef{q01, a + b + a, 1}),
		"zero-valued bad key":     payloadBytes(m, wireCoef{q01, a + b + a, 0}),
		"repeated key":            payloadBytes(m, wireCoef{1, a, 1}, wireCoef{1, a, 2}),
		"unknown value tag":       payloadBytes(m, wireCoef{1, "\x09", 1}),
		"truncated value in key":  payloadBytes(m, wireCoef{1, a[:len(a)-1], 1}),
		"truncated payload":       payloadBytes(m, wireCoef{0, "", 1})[:4],
		"oversized relation":      append([]byte{1}, binary.AppendUvarint(nil, maxDecodeLen+1)...),
		"oversized key":           append([]byte{1, 1}, binary.AppendUvarint(nil, maxDecodeLen+1)...),
		"key longer than stream":  append([]byte{1, 1}, binary.AppendUvarint(nil, 1<<20)...),
		"relation longer than it": append([]byte{1}, binary.AppendUvarint(nil, 1<<20)...),
	} {
		if got, err := codec.Decode(bytes.NewReader(stream)); err == nil {
			t.Errorf("%s: decoded to %v, want an error", name, got)
		}
	}
}

// FuzzRelCovarDecode: decoding arbitrary bytes never panics, what it
// accepts satisfies the layout's invariants, and encode/decode of an
// accepted value is the identity.
func FuzzRelCovarDecode(f *testing.F) {
	const m = 3
	codec := RelCovarCodec{Ring: NewRelCovarRing(m)}
	rnd := rand.New(rand.NewSource(5))
	for n := 0; n < 6; n++ {
		data := make([]byte, 64)
		rnd.Read(data)
		v, _ := (&pairGen{r: codec.Ring, data: data}).value()
		var buf bytes.Buffer
		if err := codec.Encode(&buf, v); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	a := value.T("a").Encode()
	f.Add(payloadBytes(m, wireCoef{0, "", 0}, wireCoef{1, a, 0}))
	f.Add(payloadBytes(m, wireCoef{1, a + a, 1}))
	f.Add(payloadBytes(m, wireCoef{5, a + a + a, 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := codec.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if v != nil {
			if len(v.e) == 0 {
				t.Fatal("decoded a non-nil zero")
			}
			for i, e := range v.e {
				parts := 0
				for _, p := range []CatID{e.part1(), e.part2()} {
					if p != 0 {
						parts++
					}
				}
				switch {
				case e.v != e.v:
					return // NaN equals nothing, itself included
				case e.v == 0:
					t.Fatalf("explicit zero at %d", i)
				case i > 0 && v.e[i-1].key >= e.key:
					t.Fatalf("keys not strictly ascending at %d", i)
				case e.slot() >= slotCount(m), e.slot() == 0 && parts > 0, e.slot() <= m && parts > 1:
					t.Fatalf("slot %d holds a %d-part key", e.slot(), parts)
				case e.part1() == 0 && e.part2() != 0:
					t.Fatalf("key at %d is not left-packed", i)
				}
			}
		}
		var buf bytes.Buffer
		if err := codec.Encode(&buf, v); err != nil {
			t.Fatal(err)
		}
		back, err := codec.Decode(&buf)
		if err != nil || !back.Equal(v) {
			t.Fatalf("decode(encode(x)) = (%v, %v), want %v", back, err, v)
		}
	})
}
