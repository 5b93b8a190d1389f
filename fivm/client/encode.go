package client

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
)

// appendUpdates appends the POST /v1/update body for ups to dst: the
// bytes json.Marshal(map[string]any{"updates": ups}) produces, written
// with strconv instead of reflection. Tuple elements of the kinds the
// load generators send (nil, string, int, int64, float64, float32) are
// formatted here; any other element, and any string that needs
// escaping, is handed to json.Marshal, so the output matches it byte
// for byte. A NaN or infinite float is json.Marshal's error.
func appendUpdates(dst []byte, ups []Update) ([]byte, error) {
	if ups == nil {
		return append(dst, `{"updates":null}`...), nil
	}
	dst = append(dst, `{"updates":[`...)
	first := len(dst)
	for i, u := range ups {
		if i > 0 {
			if i == 1 {
				// Reserve room for the rest, as if each encodes as long
				// as the first did.
				dst = slices.Grow(dst, (len(dst)-first+1)*(len(ups)-1)+len("]}"))
			}
			dst = append(dst, ',')
		}
		dst = append(dst, `{"rel":`...)
		dst = appendString(dst, u.Rel)
		dst = append(dst, `,"tuple":`...)
		if u.Tuple == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for j, v := range u.Tuple {
				if j > 0 {
					dst = append(dst, ',')
				}
				var err error
				if dst, err = appendValue(dst, v); err != nil {
					return nil, err
				}
			}
			dst = append(dst, ']')
		}
		if u.Mult != nil {
			dst = append(dst, `,"mult":`...)
			dst = strconv.AppendInt(dst, int64(*u.Mult), 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), nil
}

func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case string:
		return appendString(dst, x), nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case float64:
		return appendFloat(dst, x, 64)
	case float32:
		return appendFloat(dst, float64(x), 32)
	}
	return appendMarshal(dst, v)
}

// appendFloat formats f as encoding/json does: like ES6's
// number-to-string, %f between 1e-6 and 1e21 and %e outside it, with
// the exponent's leading zero dropped (e-07 → e-7). The cut-offs
// compare at the value's own width, so a float32 is judged as one.
func appendFloat(dst []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return appendMarshal(dst, f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	dst = strconv.AppendFloat(dst, f, format, -1, bits)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendString writes s quoted. A string of printable ASCII that
// encoding/json leaves as it is (no quote, backslash, or the <, >, &
// it escapes for HTML) is copied; any other goes through json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendMarshal(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(dst, b...), nil
}
