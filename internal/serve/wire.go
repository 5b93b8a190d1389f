package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/value"
	"repro/internal/view"
)

// DecodeUpdates reads a POST /v1/update body from r and decodes it in
// one pass over its bytes, without reflection. Besides the typed
// updates it returns each update object's bytes exactly as they appear
// in the body (sub-slices of one buffer), which the cluster router
// forwards to the shards without re-encoding. A reader that reports its
// Len (bytes.Reader, bytes.Buffer, strings.Reader) is read into one
// buffer of that size.
//
// The body is one JSON object:
//
//	{"updates": [{"rel": "R", "tuple": [1, 2.5, "x", null], "mult": -1}, ...]}
//
// Keys match their field exactly or case-insensitively, as in
// encoding/json; unknown keys are skipped, and a body or an update that
// is null decodes as empty. An integral number literal that fits in an
// int64 becomes an INT and any other number a DOUBLE, so 4 and 4.0
// type differently. mult null or absent means 1. Within an update a
// repeated key replaces the earlier value. A string with escapes or
// non-ASCII bytes is unquoted by encoding/json, so escapes, surrogates
// and invalid UTF-8 (→ U+FFFD) mean what they mean there. Unlike
// encoding/json's decoder, a repeated top-level "updates" key and
// anything but whitespace after the object are errors.
func DecodeUpdates(r io.Reader) ([][]byte, []view.Update, error) {
	size := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		size = int64(l.Len())
	}
	return decodeFrom(r, size)
}

// DecodeRequest is DecodeUpdates over an HTTP request body, read into
// one buffer sized from Content-Length.
func DecodeRequest(r *http.Request) ([][]byte, []view.Update, error) {
	return decodeFrom(r.Body, r.ContentLength)
}

// maxPresize bounds the buffer a claimed body size reserves up front; a
// larger body still reads, growing as it arrives.
const maxPresize = 64 << 20

func decodeFrom(r io.Reader, size int64) ([][]byte, []view.Update, error) {
	var buf bytes.Buffer
	if size > 0 && size <= maxPresize {
		// ReadFrom grows unless MinRead bytes are free, so this extra
		// room lets the read that reports EOF land without a copy.
		buf.Grow(int(size) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, nil, fmt.Errorf("reading body: %w", err)
	}
	d := wireDecoder{buf: buf.Bytes()}
	raws, ups, err := d.body()
	if err != nil {
		return nil, nil, fmt.Errorf("decoding body: %w", err)
	}
	return raws, ups, nil
}

// maxDepth is encoding/json's nesting limit: a body it refuses is
// refused here too.
const maxDepth = 10000

// Nesting depths of the values the decoder reads by name, for skip.
const (
	depthBody   = 1 // a top-level key's value
	depthUpdate = 3 // a value inside an update object
	depthTuple  = 4 // a tuple element
)

// wireDecoder scans one body. Errors stop the scan at once: any error
// rejects the whole body.
type wireDecoder struct {
	buf []byte
	pos int
	// names are the relation names decoded so far; a repeated name
	// reuses one string.
	names []string
	// vals collects the tuple being decoded, which is then copied out at
	// its exact size.
	vals []value.Value
}

func (d *wireDecoder) body() (raws [][]byte, ups []view.Update, err error) {
	d.ws()
	switch d.peek() {
	case 'n':
		err = d.literal("null")
	case '{':
		d.pos++
		seen := false
		for first := true; ; first = false {
			key, plain, more, err := d.key(first)
			if err != nil {
				return nil, nil, err
			}
			if !more {
				break
			}
			if !keyIs(key, plain, "updates") {
				if err := d.skip(depthBody); err != nil {
					return nil, nil, err
				}
				continue
			}
			if seen {
				return nil, nil, errors.New(`repeated "updates" key`)
			}
			seen = true
			if raws, ups, err = d.updates(); err != nil {
				return nil, nil, err
			}
		}
	default:
		if d.pos >= len(d.buf) {
			return nil, nil, d.syntax("")
		}
		return nil, nil, errors.New("body is not a JSON object")
	}
	if err != nil {
		return nil, nil, err
	}
	d.ws()
	if d.pos < len(d.buf) {
		return nil, nil, fmt.Errorf("data after the top-level value at offset %d", d.pos)
	}
	return raws, ups, nil
}

// updates decodes the "updates" array, recording each element's bytes.
func (d *wireDecoder) updates() (raws [][]byte, ups []view.Update, err error) {
	switch d.peek() {
	case 'n':
		return nil, nil, d.literal("null")
	case '[':
		d.pos++
	default:
		return nil, nil, errors.New(`"updates" is not an array`)
	}
	for first := true; ; first = false {
		more, err := d.elem(first)
		if err != nil {
			return nil, nil, err
		}
		if !more {
			return raws, ups, nil
		}
		start := d.pos
		u, err := d.update()
		if err != nil {
			return nil, nil, fmt.Errorf("updates[%d]: %w", len(ups), err)
		}
		raws = append(raws, d.buf[start:d.pos])
		ups = append(ups, u)
	}
}

// update decodes one update object.
func (d *wireDecoder) update() (view.Update, error) {
	u := view.Update{Tuple: value.Tuple{}, Mult: 1}
	switch d.peek() {
	case 'n':
		return u, d.literal("null")
	case '{':
		d.pos++
	default:
		return u, errors.New("update is not an object")
	}
	d.vals = d.vals[:0]
	// tupleErr is a tuple element the wire cannot carry. It fails the
	// update only if no later "tuple" key replaces its tuple.
	var tupleErr error
	for first := true; ; first = false {
		key, plain, more, err := d.key(first)
		if err != nil {
			return u, err
		}
		if !more {
			break
		}
		switch {
		case keyIs(key, plain, "rel"):
			switch d.peek() {
			case 'n':
				err = d.literal("null") // leaves rel as it was
			case '"':
				tok, vplain, serr := d.str()
				if err = serr; err == nil {
					u.Rel = d.intern(tok, vplain)
				}
			default:
				err = errors.New(`"rel" is not a string`)
			}
		case keyIs(key, plain, "tuple"):
			d.vals, tupleErr = d.vals[:0], nil
			switch d.peek() {
			case 'n':
				err = d.literal("null")
			case '[':
				tupleErr, err = d.tuple()
			default:
				err = errors.New(`"tuple" is not an array`)
			}
		case keyIs(key, plain, "mult"):
			u.Mult, err = d.mult()
		default:
			err = d.skip(depthUpdate)
		}
		if err != nil {
			return u, err
		}
	}
	if tupleErr != nil {
		return u, tupleErr
	}
	if len(d.vals) > 0 {
		u.Tuple = make(value.Tuple, len(d.vals))
		copy(u.Tuple, d.vals)
	}
	return u, nil
}

// mult decodes a multiplicity: null means 1, anything but an integer
// literal that fits in an int is an error.
func (d *wireDecoder) mult() (int, error) {
	if d.peek() == 'n' {
		return 1, d.literal("null")
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return 0, errors.New(`"mult" is not an integer`)
	}
	tok, _, err := d.num()
	if err != nil {
		return 0, err
	}
	m, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return 0, fmt.Errorf(`"mult" %s is not an integer`, tok)
	}
	return int(m), nil
}

// tuple decodes a tuple array into d.vals. A syntax error is err; a
// well-formed value the wire cannot carry (bool, array, object, a
// number out of float64 range) is elemErr, so the caller can drop it
// when a later "tuple" key replaces this one.
func (d *wireDecoder) tuple() (elemErr, err error) {
	d.pos++
	for first := true; ; first = false {
		more, err := d.elem(first)
		if err != nil || !more {
			return elemErr, err
		}
		v, verr, err := d.scalar()
		if err != nil {
			return nil, err
		}
		if verr != nil && elemErr == nil {
			elemErr = fmt.Errorf("tuple[%d]: %w", len(d.vals), verr)
		}
		d.vals = append(d.vals, v)
	}
}

// scalar decodes one tuple element. verr reports a well-formed value
// that is not a number, string or null, or a number ParseFloat refuses.
func (d *wireDecoder) scalar() (v value.Value, verr, err error) {
	switch c := d.peek(); {
	case c == '"':
		tok, plain, err := d.str()
		if err != nil {
			return v, nil, err
		}
		return value.String(unquote(tok, plain)), nil, nil
	case c == 'n':
		return value.Null(), nil, d.literal("null")
	case c == '-' || ('0' <= c && c <= '9'):
		tok, integral, err := d.num()
		if err != nil {
			return v, nil, err
		}
		if integral {
			if i, ok := parseInt(tok); ok {
				return value.Int(i), nil, nil
			}
		}
		f, perr := strconv.ParseFloat(string(tok), 64)
		if perr != nil {
			return v, fmt.Errorf("bad number %q", tok), nil
		}
		return value.Float(f), nil, nil
	default:
		start := d.pos
		if err := d.skip(depthTuple); err != nil {
			return v, nil, err
		}
		return v, fmt.Errorf("unsupported JSON value %s (want number, string, or null)", d.buf[start:d.pos]), nil
	}
}

// parseInt parses an integral number literal, reporting false when it
// does not fit in an int64 (the literal is then a DOUBLE).
func parseInt(tok []byte) (int64, bool) {
	digits := tok
	if tok[0] == '-' {
		digits = tok[1:]
	}
	if len(digits) > 18 {
		i, err := strconv.ParseInt(string(tok), 10, 64)
		return i, err == nil
	}
	var n int64
	for _, c := range digits {
		n = n*10 + int64(c-'0')
	}
	if tok[0] == '-' {
		n = -n
	}
	return n, true
}

// intern returns the string a relation-name token spells, reusing the
// string of an earlier update in the batch that named the same
// relation.
func (d *wireDecoder) intern(tok []byte, plain bool) string {
	if plain {
		for _, n := range d.names {
			if n == string(tok[1:len(tok)-1]) {
				return n
			}
		}
	}
	s := unquote(tok, plain)
	if len(d.names) < 16 {
		d.names = append(d.names, s)
	}
	return s
}

// unquote returns the value of a string token (quotes included). A
// plain token's value is its bytes; any other is unquoted by
// encoding/json, which the scanner has already shown it accepts.
func unquote(tok []byte, plain bool) string {
	if plain {
		return string(tok[1 : len(tok)-1])
	}
	var s string
	_ = json.Unmarshal(tok, &s)
	return s
}

// keyIs reports whether an object key selects the field name the way
// encoding/json matches keys: exactly or case-insensitively (Unicode
// simple folding), after unescaping.
func keyIs(tok []byte, plain bool, name string) bool {
	if plain {
		return strings.EqualFold(string(tok[1:len(tok)-1]), name)
	}
	return strings.EqualFold(unquote(tok, plain), name)
}

// key advances to the next key of an object whose '{' (first) or
// previous member has been consumed, and past the key's ':'. It
// reports more=false after consuming the closing '}'.
func (d *wireDecoder) key(first bool) (tok []byte, plain, more bool, err error) {
	d.ws()
	switch c := d.peek(); {
	case c == '}':
		d.pos++
		return nil, false, false, nil
	case !first && c == ',':
		d.pos++
		d.ws()
	case !first:
		return nil, false, false, d.syntax("after object value")
	}
	if d.peek() != '"' {
		return nil, false, false, d.syntax("looking for beginning of object key string")
	}
	if tok, plain, err = d.str(); err != nil {
		return nil, false, false, err
	}
	d.ws()
	if d.peek() != ':' {
		return nil, false, false, d.syntax("after object key")
	}
	d.pos++
	d.ws()
	return tok, plain, true, nil
}

// elem advances to the next element of an array whose '[' (first) or
// previous element has been consumed. It reports false after consuming
// the closing ']'.
func (d *wireDecoder) elem(first bool) (bool, error) {
	d.ws()
	switch c := d.peek(); {
	case c == ']':
		d.pos++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.pos++
		d.ws()
		return true, nil
	default:
		return false, d.syntax("after array element")
	}
}

// skip scans over one value of any kind at the given nesting depth
// (the number of arrays and objects around it), validating it.
func (d *wireDecoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth >= maxDepth {
			return errors.New("exceeded max depth")
		}
		d.pos++
		for first := true; ; first = false {
			var more bool
			var err error
			if c == '{' {
				_, _, more, err = d.key(first)
			} else {
				more, err = d.elem(first)
			}
			if err != nil || !more {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || ('0' <= c && c <= '9'):
		_, _, err := d.num()
		return err
	default:
		return d.syntax("looking for beginning of value")
	}
}

// str scans the string token at d.pos, quotes included. plain reports
// that it has no escapes and only ASCII bytes, so the bytes between
// its quotes are its value.
func (d *wireDecoder) str() (tok []byte, plain bool, err error) {
	start := d.pos
	plain = true
	for i := start + 1; i < len(d.buf); i++ {
		switch c := d.buf[i]; {
		case c == '"':
			d.pos = i + 1
			return d.buf[start:d.pos], plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(d.buf) {
				break
			}
			switch d.buf[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i < len(d.buf) && !isHex(d.buf[i]) {
						d.pos = i
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
				}
			default:
				d.pos = i
				return nil, false, d.syntax("in string escape code")
			}
		case c < 0x20:
			d.pos = i
			return nil, false, d.syntax("in string literal")
		case c >= 0x80:
			plain = false
		}
	}
	d.pos = len(d.buf)
	return nil, false, d.syntax("")
}

// num scans the number token at d.pos against JSON's grammar and
// reports whether it is integral (no fraction, no exponent).
func (d *wireDecoder) num() (tok []byte, integral bool, err error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, false, d.syntax("in numeric literal")
	}
	integral = true
	if d.peek() == '.' {
		integral = false
		d.pos++
		if !isDigit(d.peek()) {
			return nil, false, d.syntax("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		integral = false
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !isDigit(d.peek()) {
			return nil, false, d.syntax("in exponent of numeric literal")
		}
		d.digits()
	}
	return d.buf[start:d.pos], integral, nil
}

func (d *wireDecoder) digits() {
	for d.pos < len(d.buf) && isDigit(d.buf[d.pos]) {
		d.pos++
	}
}

// literal consumes the keyword word (true, false or null).
func (d *wireDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.peek() != word[i] {
			return d.syntax("in literal " + word)
		}
		d.pos++
	}
	return nil
}

func (d *wireDecoder) ws() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at d.pos, or 0 at the end of the body (0 is
// never valid where a byte is looked for).
func (d *wireDecoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// syntax reports the byte at d.pos as invalid in the given context, or
// the body as truncated.
func (d *wireDecoder) syntax(context string) error {
	if d.pos >= len(d.buf) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.buf[d.pos], context, d.pos)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}
