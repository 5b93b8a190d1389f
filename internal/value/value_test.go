package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.Int() != 42 {
		t.Errorf("Int(42) = %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Errorf("Float(2.5) = %v", v)
	}
	if v := String("x"); v.Kind() != KindString || v.Str() != "x" {
		t.Errorf("String(x) = %v", v)
	}
	if v := Null(); v.Kind() != KindNull {
		t.Errorf("Null() = %v", v)
	}
	var zero Value
	if zero.Kind() != KindNull {
		t.Error("zero Value is not NULL")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"Int on string", func() { String("x").Int() }},
		{"Float on int", func() { Int(1).Float() }},
		{"Str on float", func() { Float(1).Str() }},
		{"Int on null", func() { Null().Int() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			c.fn()
		})
	}
}

func TestAsFloatCoercion(t *testing.T) {
	if got := Int(3).AsFloat(); got != 3 {
		t.Errorf("Int(3).AsFloat() = %v", got)
	}
	if got := Float(1.5).AsFloat(); got != 1.5 {
		t.Errorf("Float(1.5).AsFloat() = %v", got)
	}
	if got := String("7").AsFloat(); got != 0 {
		t.Errorf("String coerces to %v, want 0", got)
	}
	if got := Null().AsFloat(); got != 0 {
		t.Errorf("Null coerces to %v, want 0", got)
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Float(1), false}, // kinds differ
		{Float(2.5), Float(2.5), true},
		{Float(math.NaN()), Float(math.NaN()), true}, // NaN equals itself here
		{String("a"), String("a"), true},
		{String("a"), String("b"), false},
		{Null(), Null(), true},
		{Null(), Int(0), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareOrdering(t *testing.T) {
	// NULL < numerics < strings; numerics cross-kind by value.
	ordered := []Value{
		Null(),
		Int(-5), Float(-1.5), Int(0), Float(0.5), Int(1), Float(1.5), Int(2),
		String(""), String("a"), String("b"),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueCompareNumericTie(t *testing.T) {
	// Int(1) vs Float(1): equal as numbers, must still order
	// deterministically and antisymmetrically.
	a, b := Int(1), Float(1)
	if a.Compare(b) == 0 || a.Compare(b) != -b.Compare(a) {
		t.Errorf("cross-kind tie not antisymmetric: %d vs %d", a.Compare(b), b.Compare(a))
	}
	if Int(1).Compare(Int(1)) != 0 {
		t.Error("Int(1) != Int(1)")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{String("hi"), "hi"},
		{Null(), "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindInt.String() != "INT" || KindFloat.String() != "DOUBLE" ||
		KindString.String() != "VARCHAR" || KindNull.String() != "NULL" {
		t.Error("kind names drifted")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

// quickValue builds a Value from quick-generated raw parts.
func quickValue(kind uint8, i int64, f float64, s string) Value {
	switch kind % 4 {
	case 0:
		return Null()
	case 1:
		return Int(i)
	case 2:
		if math.IsNaN(f) {
			f = 0
		}
		return Float(f)
	default:
		return String(s)
	}
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry.
	if err := quick.Check(func(k1 uint8, i1 int64, f1 float64, s1 string, k2 uint8, i2 int64, f2 float64, s2 string) bool {
		a := quickValue(k1, i1, f1, s1)
		b := quickValue(k2, i2, f2, s2)
		return a.Compare(b) == -b.Compare(a)
	}, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	// Reflexivity: Compare(a, a) == 0, and Equal is consistent with it.
	if err := quick.Check(func(k uint8, i int64, f float64, s string) bool {
		a := quickValue(k, i, f, s)
		return a.Compare(a) == 0 && a.Equal(a)
	}, nil); err != nil {
		t.Errorf("reflexivity: %v", err)
	}
}
