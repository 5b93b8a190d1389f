package value

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTConstructor(t *testing.T) {
	tp := T(1, int64(2), 3.5, "x", Null(), Int(7))
	want := Tuple{Int(1), Int(2), Float(3.5), String("x"), Null(), Int(7)}
	if !tp.Equal(want) {
		t.Errorf("T(...) = %v, want %v", tp, want)
	}
}

func TestTConstructorPanicsOnUnsupported(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unsupported type")
		}
	}()
	T(struct{}{})
}

func TestTupleEqualAndCompare(t *testing.T) {
	a := T(1, "x")
	b := T(1, "x")
	c := T(1, "y")
	d := T(1)
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Error("Equal misbehaves")
	}
	if a.Compare(b) != 0 {
		t.Error("equal tuples compare nonzero")
	}
	if a.Compare(c) >= 0 || c.Compare(a) <= 0 {
		t.Error("lexicographic order broken")
	}
	if d.Compare(a) >= 0 {
		t.Error("prefix must order first")
	}
}

func TestTupleConcatAndProject(t *testing.T) {
	a := T(1, 2)
	b := T("x")
	c := a.Concat(b)
	if !c.Equal(T(1, 2, "x")) {
		t.Errorf("Concat = %v", c)
	}
	// Concat must not alias the receiver's backing array.
	a2 := append(a, Int(99))
	_ = a2
	if !c.Equal(T(1, 2, "x")) {
		t.Errorf("Concat aliases input: %v", c)
	}
	p := c.Project([]int{2, 0})
	if !p.Equal(T("x", 1)) {
		t.Errorf("Project = %v", p)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Tuple{
		{},
		T(0),
		T(-1, 1),
		T(math.MaxInt64, math.MinInt64),
		T(3.14159, -0.0, math.Inf(1)),
		T(""),
		T("hello", "мир", "\x00\x01"),
		T(Null(), 1, "x", 2.5, Null()),
		T(strings.Repeat("long", 100)),
	}
	for _, tp := range cases {
		enc := tp.Encode()
		got, err := DecodeTuple(enc)
		if err != nil {
			t.Errorf("decode(%v): %v", tp, err)
			continue
		}
		if len(tp) == 0 && len(got) == 0 {
			continue
		}
		if !got.Equal(tp) {
			t.Errorf("roundtrip %v -> %v", tp, got)
		}
	}
}

func TestEncodeInjective(t *testing.T) {
	// Distinct tuples must encode distinctly — the relation store
	// depends on it.
	tuples := []Tuple{
		T(1), T(2), T("1"), T(1.0), T(1, 2), T(12), T("a", "b"), T("ab"),
		T("a", ""), T("", "a"), T(Null()), {},
	}
	seen := map[string]Tuple{}
	for _, tp := range tuples {
		enc := tp.Encode()
		if prev, dup := seen[enc]; dup {
			t.Errorf("collision: %v and %v both encode to %q", prev, tp, enc)
		}
		seen[enc] = tp
	}
}

func TestEncodeConcatEqualsConcatEncode(t *testing.T) {
	// The relational ring's product depends on this homomorphism.
	if err := quick.Check(func(a, b int64, s1, s2 string) bool {
		t1 := T(a, s1)
		t2 := T(s2, b)
		return t1.Encode()+t2.Encode() == t1.Concat(t2).Encode()
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	cases := []string{
		"\x01\x00",     // truncated int
		"\x02\x00\x00", // truncated float
		"\x03\x05ab",   // string shorter than its length
		"\x07",         // unknown tag
		"\x03\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", // absurd varint length
	}
	for _, c := range cases {
		if _, err := DecodeTuple(c); err == nil {
			t.Errorf("DecodeTuple(%q) succeeded on malformed input", c)
		}
	}
}

func TestMustDecodeTuplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MustDecodeTuple("\x01")
}

func TestTupleRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(i int64, f float64, s string, hasNull bool) bool {
		if math.IsNaN(f) {
			f = 0
		}
		tp := T(i, f, s)
		if hasNull {
			tp = append(tp, Null())
		}
		dec, err := DecodeTuple(tp.Encode())
		return err == nil && dec.Equal(tp)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTupleString(t *testing.T) {
	if got := T(1, "x", Null()).String(); got != "(1, x, NULL)" {
		t.Errorf("String() = %q", got)
	}
	if got := (Tuple{}).String(); got != "()" {
		t.Errorf("empty String() = %q", got)
	}
}

func TestEncodedLenIsUpperBound(t *testing.T) {
	if err := quick.Check(func(i int64, s string) bool {
		tp := T(i, s, 2.5, Null())
		return len(tp.Encode()) <= tp.EncodedLen()
	}, nil); err != nil {
		t.Error(err)
	}
}

// AppendEncodeProject appends exactly the key of the projected tuple.
func TestEncodeProjectEquivalence(t *testing.T) {
	if err := quick.Check(func(i int64, f float64, s string, sel uint8) bool {
		if math.IsNaN(f) {
			f = 0
		}
		tp := T(i, f, s, Null())
		// Derive an arbitrary index selection from sel (possibly with
		// repeats and any order).
		idx := []int{int(sel % 4), int(sel / 4 % 4), int(sel / 16 % 4)}
		return string(tp.AppendEncodeProject(nil, idx)) == tp.Project(idx).Encode()
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Empty projection encodes to the empty key.
	if got := T(1, 2).AppendEncodeProject(nil, nil); len(got) != 0 {
		t.Errorf("empty projection = %q", got)
	}
}

func TestEncodedValueLenCutsConcatenatedKeys(t *testing.T) {
	tp := T(7, "héllo", 2.5, nil, "")
	key := []byte(tp.Encode())
	var parts Tuple
	for len(key) > 0 {
		n, err := EncodedValueLen(key)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, MustDecodeTuple(string(key[:n]))...)
		key = key[n:]
	}
	if !parts.Equal(tp) {
		t.Errorf("cut into %v, want %v", parts, tp)
	}
	for _, bad := range []string{"", "\x09", "\x01\x00", "\x02", "\x03", "\x03\x05ab"} {
		if n, err := EncodedValueLen([]byte(bad)); err == nil {
			t.Errorf("EncodedValueLen(%q) = %d, want an error", bad, n)
		}
	}
}
