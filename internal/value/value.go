// Package value provides the typed attribute values, tuples, and schemas
// shared by every layer of the F-IVM reproduction: relations map encoded
// tuples to ring payloads, lift functions map values into ring elements,
// and the relational ring uses encoded tuples as its keys.
//
// Values are small immutable tagged unions over int64, float64, string,
// and NULL. Tuples encode to compact self-describing strings so they can
// index Go maps directly and be decoded back without a schema.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// Kind discriminates the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is an immutable tagged union holding one attribute value.
// The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload; it panics if v is not an INT.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("value: Int() on " + v.kind.String())
	}
	return v.i
}

// Float returns the float payload; it panics if v is not a DOUBLE.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic("value: Float() on " + v.kind.String())
	}
	return v.f
}

// Str returns the string payload; it panics if v is not a VARCHAR.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("value: Str() on " + v.kind.String())
	}
	return v.s
}

// AsFloat coerces a numeric value to float64. Strings and NULL coerce to
// 0 so that lift functions over unexpected kinds stay total; callers that
// need strictness should check Kind first.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		return 0
	}
}

// Equal reports deep equality of two values. Unlike ==, it treats NaN
// floats as equal to themselves so relations can store them.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindInt:
		return v.i == o.i
	case KindFloat:
		return v.f == o.f || (math.IsNaN(v.f) && math.IsNaN(o.f))
	case KindString:
		return v.s == o.s
	}
	return false
}

// Compare orders two values: NULL < INT/DOUBLE (numeric order, cross-kind
// by numeric value) < VARCHAR. It returns -1, 0, or +1.
func (v Value) Compare(o Value) int {
	if v.kind == KindInt && o.kind == KindInt {
		return cmp.Compare(v.i, o.i) // what the numeric branch decides, without the float round trip
	}
	vr, or := v.rank(), o.rank()
	if vr != or {
		if vr < or {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
		return 0
	default: // numeric vs numeric
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		// Equal as floats: fall back to kind then exact int compare so
		// Int(1) and Float(1) order deterministically.
		if v.kind != o.kind {
			if v.kind == KindInt {
				return -1
			}
			return 1
		}
		if v.kind == KindInt {
			switch {
			case v.i < o.i:
				return -1
			case v.i > o.i:
				return 1
			}
		}
		return 0
	}
}

func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	default:
		return 2
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "?"
	}
}
