package client

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// genValue draws one tuple element: the kinds appendValue formats
// itself, at the float cut-offs and over random bit patterns, strings
// encoding/json must escape, and kinds it only reaches by fallback.
func genValue(r *rand.Rand) any {
	strs := []string{"", "R", "plain text", `q"uote`, `back\slash`, "<a&b>", "tab\tnl\nbs\bff\f", "\x01\x1f\x7f",
		"é", "\u2028\u2029", "a\xffb", "\xc3", "😀"}
	f64s := []float64{0, math.Copysign(0, -1), 1, -1, 4, 0.1, 1e20, 1e21, math.Nextafter(1e21, 0), 1e-6,
		math.Nextafter(1e-6, 0), 1e-7, 1.5e-7, 1e-10, 123456789e-15, math.MaxFloat64, math.SmallestNonzeroFloat64}
	f32s := []float32{0, 1, 0.1, 1e21, math.Nextafter32(1e21, 0), 1e-6, math.Nextafter32(1e-6, 0), 1e-7, math.MaxFloat32,
		math.SmallestNonzeroFloat32}
	switch r.Intn(14) {
	case 0:
		return nil
	case 1:
		return strs[r.Intn(len(strs))]
	case 2:
		return r.Int() - r.Int()
	case 3:
		return []int64{math.MinInt64, math.MaxInt64, 0, -1}[r.Intn(4)]
	case 4:
		return f64s[r.Intn(len(f64s))] * float64(1-2*r.Intn(2))
	case 5, 6:
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0.5
		}
		return f
	case 7:
		return f32s[r.Intn(len(f32s))] * float32(1-2*r.Intn(2))
	case 8:
		f := math.Float32frombits(r.Uint32())
		if f != f || math.IsInf(float64(f), 0) {
			return float32(0.25)
		}
		return f
	case 9:
		return json.Number([]string{"1.50", "-0", "1e400", "4.0"}[r.Intn(4)])
	case 10:
		return r.Intn(2) == 0
	case 11:
		return int32(r.Int31())
	case 12:
		return uint8(r.Intn(256))
	default:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(50)-25))
	}
}

func genBatch(r *rand.Rand) []Update {
	if r.Intn(30) == 0 {
		return nil
	}
	ups := make([]Update, r.Intn(6))
	for i := range ups {
		u := &ups[i]
		u.Rel = []string{"R", "Inventory", "S<&>", "caf\u00e9", ""}[r.Intn(5)]
		switch r.Intn(8) {
		case 0: // nil tuple
		case 1:
			u.Tuple = []any{}
		default:
			u.Tuple = make([]any, 1+r.Intn(6))
			for j := range u.Tuple {
				u.Tuple[j] = genValue(r)
			}
		}
		switch r.Intn(3) {
		case 0: // implicit 1
		case 1:
			one := 1 // an explicit 1 is written out
			u.Mult = &one
		default:
			m := r.Intn(7) - 3
			u.Mult = &m
		}
	}
	return ups
}

// TestAppendUpdatesMatchesMarshal: the hand-written encoder's output is
// json.Marshal's, byte for byte, over generated batches, and it fails
// exactly where json.Marshal fails.
func TestAppendUpdatesMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		ups := genBatch(r)
		want, wantErr := json.Marshal(map[string]any{"updates": ups})
		got, err := appendUpdates(nil, ups)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("batch %#v: err = %v, json.Marshal err = %v", ups, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("batch %#v:\n got %s\nwant %s", ups, got, want)
		}
	}
	for _, bad := range []any{math.NaN(), math.Inf(1), math.Inf(-1), float32(math.Inf(1)), json.Number("x")} {
		if _, err := appendUpdates(nil, []Update{NewUpdate("R", 1, 1, bad)}); err == nil {
			t.Errorf("encoding %v: no error, want json.Marshal's", bad)
		}
	}
}

var sinkBody []byte

func BenchmarkAppendUpdates(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ups := make([]Update, 1000)
	for i := range ups {
		ups[i] = NewUpdate("Inventory", 1, r.Intn(100), r.Intn(1000), r.Intn(5000), r.Float64()*100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := appendUpdates(nil, ups)
		if err != nil {
			b.Fatal(err)
		}
		sinkBody = body
	}
}
