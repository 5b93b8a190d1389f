package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/value"
	"repro/internal/view"
)

// TestDecodeUpdatesTyping pins the wire semantics the scanner shares
// with the reference decoder, and its two deliberate departures.
func TestDecodeUpdatesTyping(t *testing.T) {
	cases := []struct {
		name, body string
		want       []view.Update // nil with wantErr
		wantErr    string
	}{
		{name: "int float string null", body: `{"updates":[{"rel":"R","tuple":[3,4.0,-0,"x",null,1e2,-2.5e-3]}]}`,
			want: []view.Update{{Rel: "R", Tuple: value.Tuple{value.Int(3), value.Float(4), value.Int(0), value.String("x"), value.Null(), value.Float(100), value.Float(-0.0025)}, Mult: 1}}},
		{name: "int64 bounds", body: `{"updates":[{"rel":"R","tuple":[9223372036854775807,-9223372036854775808,9223372036854775808]}]}`,
			want: []view.Update{{Rel: "R", Tuple: value.Tuple{value.Int(1<<63 - 1), value.Int(-1 << 63), value.Float(9223372036854775808)}, Mult: 1}}},
		{name: "mult null absent negative", body: `{"updates":[{"rel":"R","tuple":[1],"mult":null},{"rel":"R","tuple":[1]},{"tuple":[1],"mult":-2,"rel":"R"}]}`,
			want: []view.Update{{Rel: "R", Tuple: value.T(1), Mult: 1}, {Rel: "R", Tuple: value.T(1), Mult: 1}, {Rel: "R", Tuple: value.T(1), Mult: -2}}},
		{name: "keys fold case, unknown keys skipped", body: `{"UPDATES":[{"Rel":"R","TUPLE":[1],"x":{"y":[true,{"z":null}]},"MuLt":3}],"other":[1,2]}`,
			want: []view.Update{{Rel: "R", Tuple: value.T(1), Mult: 3}}},
		{name: "escapes and non-ASCII", body: `{"updates":[{"rel":"R\u0053","tuple":["caf\u00e9","ü","a\"b\\c\/d\n","\ud83d\ude00","\ud800"]}]}`,
			want: []view.Update{{Rel: "RS", Tuple: value.T("café", "ü", "a\"b\\c/d\n", "😀", "\uFFFD"), Mult: 1}}},
		{name: "invalid UTF-8 becomes U+FFFD", body: "{\"updates\":[{\"rel\":\"R\",\"tuple\":[\"a\xffb\"]}]}",
			want: []view.Update{{Rel: "R", Tuple: value.T("a\uFFFDb"), Mult: 1}}},
		{name: "a later key replaces an earlier one", body: `{"updates":[{"rel":"S","rel":"R","rel":null,"tuple":[true,[1]],"tuple":[2],"mult":5,"mult":null}]}`,
			want: []view.Update{{Rel: "R", Tuple: value.T(2), Mult: 1}}},
		{name: "null and empty", body: ` {"updates":[null,{},{"tuple":null},{"tuple":[]}]} `,
			want: []view.Update{{Tuple: value.Tuple{}, Mult: 1}, {Tuple: value.Tuple{}, Mult: 1}, {Tuple: value.Tuple{}, Mult: 1}, {Tuple: value.Tuple{}, Mult: 1}}},
		{name: "null body", body: `null`, want: []view.Update{}},
		{name: "no updates key", body: `{"x":1}`, want: []view.Update{}},
		{name: "bool in tuple", body: `{"updates":[{"rel":"R","tuple":[true]}]}`, wantErr: "unsupported JSON value true"},
		{name: "object in tuple", body: `{"updates":[{"rel":"R","tuple":[{"a":1}]}]}`, wantErr: "unsupported JSON value"},
		{name: "out of range number", body: `{"updates":[{"rel":"R","tuple":[1e400]}]}`, wantErr: "bad number"},
		{name: "fractional mult", body: `{"updates":[{"rel":"R","tuple":[1],"mult":1.0}]}`, wantErr: "mult"},
		{name: "string mult", body: `{"updates":[{"rel":"R","tuple":[1],"mult":"1"}]}`, wantErr: "mult"},
		{name: "numeric rel", body: `{"updates":[{"rel":1,"tuple":[1]}]}`, wantErr: "rel"},
		{name: "updates not an array", body: `{"updates":{}}`, wantErr: "not an array"},
		{name: "body not an object", body: `[1]`, wantErr: "not a JSON object"},
		{name: "empty body", body: ``, wantErr: "unexpected end"},
		{name: "truncated", body: `{"updates":[{"rel":"R","tuple":[1,`, wantErr: "unexpected end"},
		{name: "leading zero", body: `{"updates":[{"rel":"R","tuple":[01]}]}`, wantErr: "invalid character"},
		{name: "trailing comma", body: `{"updates":[{"rel":"R","tuple":[1,]}]}`, wantErr: "invalid character"},
		{name: "raw control character", body: "{\"updates\":[{\"rel\":\"R\n\"}]}", wantErr: "in string literal"},
		// The two departures from encoding/json's Decoder, which decodes
		// a second "updates" array into the first's structs and ignores
		// whatever follows the first value.
		{name: "repeated updates key", body: `{"updates":[],"Updates":[]}`, wantErr: `repeated "updates" key`},
		{name: "trailing data", body: `{"updates":[]} {}`, wantErr: "data after the top-level value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, got, err := DecodeUpdates(strings.NewReader(tc.body))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) || (len(got) > 0 && !reflect.DeepEqual(got, tc.want)) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

// divergent reports whether encoding/json's Decoder accepts body only
// by one of the two departures the scanner refuses: a repeated
// top-level "updates" key, or non-whitespace after the top-level value.
func divergent(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var top json.RawMessage
	if dec.Decode(&top) != nil {
		return false
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return true
	}
	keys := json.NewDecoder(bytes.NewReader(top))
	if tok, err := keys.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	n := 0
	for keys.More() {
		k, err := keys.Token()
		if err != nil {
			return false
		}
		if strings.EqualFold(k.(string), "updates") {
			n++
		}
		var skip json.RawMessage
		if keys.Decode(&skip) != nil {
			return false
		}
	}
	return n > 1
}

// FuzzDecodeUpdates holds the scanner to the reflective decoder it
// replaced (wire_ref_test.go): the same bodies are accepted, into
// reflect.DeepEqual updates, except the two departures divergent names,
// which the scanner refuses. An accepted body's update spans, joined
// into a new body the way the cluster router builds a sub-batch,
// decode to the same updates.
func FuzzDecodeUpdates(f *testing.F) {
	for _, seed := range []string{
		`{"updates":[{"rel":"R","tuple":[1,2]},{"rel":"S","tuple":[2,7],"mult":-1}]}`,
		`{"updates":[{"rel":"R","tuple":[4.0,1e21,1e-7,-0,9223372036854775808,"x",null]}]}`,
		`{"updates":[{"rel":"R\u00e9","tuple":["\ud83d\ude00","\u2028","a\\b"],"x":{"y":[true,false,null]}}]}`,
		`{"UPDATES":[{"Rel":"R","TUPLE":[1],"MULT":2}],"other":"x"}`,
		`{"updates":[null,{},{"tuple":null,"mult":null}]}`,
		`{"updates":[{"rel":"R","tuple":[true],"tuple":[1]}]}`,
		`{"updates":[{"rel":"R","tuple":[1],"mult":1.5}]}`,
		`{"updates":[{"rel":"R","tuple":[1e400]}]}`,
		`{"updates":[],"updates":[{"rel":"R","tuple":[1]}]}`,
		`{"updates":[]}x`,
		`null`,
		`null x`,
		`[1,2]`,
		"{\"updates\":[{\"rel\":\"\xff\",\"tuple\":[\"\xc3\"]}]}",
		`{"updateſ":[{"rel":"R","tuple":[1]}]}`,
		`{"x":[[[[[[[[[[]]]]]]]]]]}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		_, want, refErr := refDecodeUpdates(bytes.NewReader(body))
		raws, got, err := DecodeUpdates(bytes.NewReader(body))
		if refErr == nil && divergent(body) {
			if err == nil {
				t.Fatalf("accepted %q, which only encoding/json's leniency accepts", body)
			}
			return
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("body %q: err = %v, reference err = %v", body, err, refErr)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("body %q:\n got %#v\nwant %#v", body, got, want)
		}
		joined := []byte(`{"updates":[` + string(bytes.Join(raws, []byte(","))) + `]}`)
		_, again, err := DecodeUpdates(bytes.NewReader(joined))
		if err != nil {
			t.Fatalf("re-joined spans %q: %v", joined, err)
		}
		if len(again) != len(got) || (len(got) > 0 && !reflect.DeepEqual(again, got)) {
			t.Fatalf("re-joined spans %q decode to %v, want %v", joined, again, got)
		}
	})
}

// inventoryBody renders n Retailer Inventory rows as an update body,
// numbers only, the shape of the benchmark's ingest batches.
func inventoryBody(tb testing.TB, n int) []byte {
	tb.Helper()
	cfg := dataset.DefaultRetailerConfig()
	cfg.InventoryRows = n
	inv, _ := dataset.Retailer(cfg).Relation("Inventory")
	var b bytes.Buffer
	b.WriteString(`{"updates":[`)
	for i, tup := range inv.Tuples {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"rel":"Inventory","tuple":[`)
		for j, v := range tup {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprint(&b, v)
		}
		b.WriteString(`]}`)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// TestDecodeUpdatesAllocs pins the decoder at one allocation per update
// — the update's exact-size tuple — plus a few per batch (the body
// buffer, the growing update and span slices, the relation name). The
// budget is the measured 1.03 per update, +~7 %.
func TestDecodeUpdatesAllocs(t *testing.T) {
	const n = 1000
	body := inventoryBody(t, n)
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		_, _, err = DecodeUpdates(bytes.NewReader(body))
	})
	if err != nil {
		t.Fatal(err)
	}
	perUpdate := allocs / n
	t.Logf("%d-tuple Inventory body (%d bytes): %.0f allocs, %.3f per update", n, len(body), allocs, perUpdate)
	if perUpdate > 1.1 {
		t.Errorf("decoding takes %.3f allocs/update, budget 1.1", perUpdate)
	}
}

var sinkUpdates []view.Update

func BenchmarkDecodeUpdates(b *testing.B) {
	body := inventoryBody(b, 1000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ups, err := DecodeUpdates(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		sinkUpdates = ups
	}
}
