package ring

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/value"
)

func roundTrip[V any](t *testing.T, c Codec[V], v V) V {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf, v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := c.Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after decode", buf.Len())
	}
	return got
}

func TestIntCodec(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 127, -128, math.MaxInt64, math.MinInt64} {
		if got := roundTrip[int64](t, IntCodec{}, v); got != v {
			t.Errorf("roundtrip(%d) = %d", v, got)
		}
	}
}

func TestFloatCodec(t *testing.T) {
	for _, v := range []float64{0, -0.0, 1.5, math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		if got := roundTrip[float64](t, FloatCodec{}, v); got != v {
			t.Errorf("roundtrip(%v) = %v", v, got)
		}
	}
	if got := roundTrip[float64](t, FloatCodec{}, math.NaN()); !math.IsNaN(got) {
		t.Errorf("NaN roundtrip = %v", got)
	}
}

func TestRelCovarCodec(t *testing.T) {
	r := NewRelCovarRing(2)
	c := RelCovarCodec{Ring: r}
	gen := randRelCovar(2)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		v := gen(rng)
		got := roundTrip[*RelCovar](t, c, v)
		if v == nil {
			if got != nil {
				t.Errorf("nil decoded to %v", got)
			}
			continue
		}
		if !got.Equal(v) {
			t.Errorf("roundtrip(%v) = %v", v, got)
		}
	}
	other := NewRelCovarRing(3).One()
	var buf bytes.Buffer
	if err := c.Encode(&buf, other); err == nil {
		t.Error("cross-degree encode accepted")
	}
}

// TestCodecTruncation: a ranged payload cut anywhere fails to decode.
func TestCodecTruncation(t *testing.T) {
	var r RangedCovarRing
	v := r.Mul(r.Lift(0)(nil, value.Float(5)), r.Lift(1)(nil, value.Float(2)))
	var buf bytes.Buffer
	if err := (RangedCovarCodec{Degree: 2}).Encode(&buf, v); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < buf.Len(); cut++ {
		if _, err := (RangedCovarCodec{Degree: 2}).Decode(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncated payload (%d bytes) decoded", cut)
		}
	}
}

func TestRangedCovarCodec(t *testing.T) {
	c := RangedCovarCodec{Degree: 6}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		n := rng.Intn(4)
		v := randRanged(rng, rng.Intn(3), n, true)
		got := roundTrip[*RangedCovar](t, c, v)
		if !got.Equal(v) {
			t.Errorf("roundtrip(%v) = %v", v, got)
		}
	}
	if got := roundTrip[*RangedCovar](t, c, nil); got != nil {
		t.Errorf("nil decoded to %v", got)
	}
}

// TestRangedCovarCodecBoundToDegree: the codec is bound to a degree. A
// payload reaching past it is refused on encode and on decode — where
// the range arrives as unverified varints, so a start that overflows
// int or a width that would size Q quadratically fails before any
// allocation — and the degree is in the tag, so a stream of another
// degree fails at the header.
func TestRangedCovarCodecBoundToDegree(t *testing.T) {
	var r RangedCovarRing
	wide := r.Mul(r.Mul(r.Lift(0)(nil, value.Float(1)), r.Lift(1)(nil, value.Float(2))), r.Lift(2)(nil, value.Float(3)))
	var buf bytes.Buffer
	if err := (RangedCovarCodec{Degree: 3}).Encode(&buf, wide); err != nil {
		t.Fatal(err)
	}
	if _, err := (RangedCovarCodec{Degree: 2}).Decode(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "exceeds degree 2") {
		t.Errorf("a [0,3) payload decoded by a degree-2 codec: err = %v", err)
	}
	if err := (RangedCovarCodec{Degree: 2}).Encode(io.Discard, wide); err == nil {
		t.Error("a [0,3) payload encoded by a degree-2 codec")
	}
	for _, head := range [][]byte{
		binary.AppendUvarint(binary.AppendUvarint([]byte{1}, math.MaxUint64), 1), // start overflows int
		binary.AppendUvarint(binary.AppendUvarint([]byte{1}, 1<<62), 1<<62),      // start+n overflows
		binary.AppendUvarint(binary.AppendUvarint([]byte{1}, 0), 1<<40),          // Q of 2^79 floats
		binary.AppendUvarint(binary.AppendUvarint([]byte{1}, 2), 2),              // [2,4) past degree 3
	} {
		if v, err := (RangedCovarCodec{Degree: 3}).Decode(bytes.NewReader(head)); err == nil || !strings.Contains(err.Error(), "exceeds degree") {
			t.Errorf("header %x decoded to (%v, %v)", head, v, err)
		}
	}
	if a, b := (RangedCovarCodec{Degree: 2}).Tag(), (RangedCovarCodec{Degree: 3}).Tag(); a == b {
		t.Errorf("degrees 2 and 3 share the tag %s", a)
	}
}

// FuzzRangedCovarDecode: decoding arbitrary bytes with the ranged codec
// never panics, never allocates beyond what a payload of the degree
// needs, accepts only ranges within the degree, and re-encoding an
// accepted value decodes to the same bits.
func FuzzRangedCovarDecode(f *testing.F) {
	const m = 6
	codec := RangedCovarCodec{Degree: m}
	rnd := rand.New(rand.NewSource(6))
	var full []byte
	for _, rng := range [][2]int{{0, 0}, {0, 1}, {2, 3}, {0, m}, {5, 1}} {
		var buf bytes.Buffer
		if err := codec.Encode(&buf, randRanged(rnd, rng[0], rng[1], true)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if rng[1] == m {
			full = buf.Bytes()
		}
	}
	// The full-degree payload cut inside Q and with a presence flag
	// other than 1, and a payload whose every float is a NaN.
	f.Add(full[:len(full)/2])
	f.Add(append([]byte{2}, full[1:]...))
	nan := binary.AppendUvarint(binary.AppendUvarint([]byte{1}, 0), 1)
	for range 3 {
		nan = binary.BigEndian.AppendUint64(nan, math.Float64bits(math.NaN()))
	}
	f.Add(nan)
	f.Add([]byte{0})
	f.Add(binary.AppendUvarint(binary.AppendUvarint([]byte{1}, 3), 4))
	f.Add(binary.AppendUvarint(binary.AppendUvarint([]byte{1}, math.MaxUint64), 0))
	// A degree-m payload is one struct and one array of m+m(m+1)/2
	// floats; the slack covers the reader's small buffers. The heap
	// counter is process-wide and the fuzzing engine allocates beside
	// the target, so the bound holds the least of three decodes.
	const budget = 8*(m+m*(m+1)/2) + 512
	var ms runtime.MemStats
	allocated := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			r := bytes.NewReader(data)
			before := allocated()
			codec.Decode(r)
			least = min(least, allocated()-before)
		}
		if least > budget {
			t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(data), least, budget)
		}
		v, err := codec.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if v != nil && (v.Start < 0 || v.N < 0 || v.Start+v.N > m || len(v.v) != v.N+triLen(v.N)) {
			t.Fatalf("accepted range [%d,%d) with %d floats at degree %d", v.Start, v.Start+v.N, len(v.v), m)
		}
		var buf bytes.Buffer
		if err := codec.Encode(&buf, v); err != nil {
			t.Fatal(err)
		}
		back, err := codec.Decode(&buf)
		if err != nil || !sameBits(back, v) {
			t.Fatalf("decode(encode(x)) = (%v, %v), want %v", back, err, v)
		}
	})
}

// sameBits is Equal on the bit patterns, so NaN payloads round-trip too.
func sameBits(a, b *RangedCovar) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Start != b.Start || a.N != b.N || math.Float64bits(a.C) != math.Float64bits(b.C) {
		return false
	}
	for i, x := range a.v {
		if math.Float64bits(x) != math.Float64bits(b.v[i]) {
			return false
		}
	}
	return true
}

func TestCovarClone(t *testing.T) {
	gen := randCovar(3)
	rng := rand.New(rand.NewSource(10))
	v := gen(rng)
	for v == nil {
		v = gen(rng)
	}
	cl := v.Clone()
	if !cl.Equal(v) {
		t.Fatalf("clone %v != source %v", cl, v)
	}
	sums(cl)[0] += 1
	if cl.Equal(v) {
		t.Fatal("clone shares backing storage with source")
	}
	if (*RangedCovar)(nil).Clone() != nil {
		t.Fatal("nil clone must be nil")
	}
}
