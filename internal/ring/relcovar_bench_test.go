package ring

import (
	"testing"

	"repro/internal/value"
)

// The fixtures mirror the Retailer analysis engine (degree 7): a view
// payload summed over tuples with three categorical and one continuous
// feature, and the single-tuple products a delta multiplies it with.
const benchDegree = 7

var benchSink *RelCovar

// benchItemView is a stored view payload: the sum over n Item-like
// tuples (prize continuous; subcategory, category, categoryCluster
// categorical over 31, 11 and 5 values).
func benchItemView(r RelCovarRing, n int) *RelCovar {
	var sum *RelCovar
	for k := 0; k < n; k++ {
		sum = r.AddInto(sum, benchItemTuple(r, k))
	}
	return sum
}

func benchItemTuple(r RelCovarRing, k int) *RelCovar {
	p := r.LiftContinuous(1)(value.Float(float64(1 + k%17)))
	p = r.Mul(p, r.LiftCategorical(2)(value.Int(int64(k%31))))
	p = r.Mul(p, r.LiftCategorical(3)(value.Int(int64(k%11))))
	return r.Mul(p, r.LiftCategorical(4)(value.Int(int64(k%5))))
}

// BenchmarkRelCovarMul multiplies a single-tuple delta payload with a
// stored sibling view payload, the product a delta join computes.
func BenchmarkRelCovarMul(b *testing.B) {
	r := NewRelCovarRing(benchDegree)
	view := benchItemView(r, 200)
	delta := r.LiftContinuous(0)(value.Float(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = r.Mul(delta, view)
	}
}

// BenchmarkRelCovarAddInto commits a single-tuple payload into a stored
// view payload that already holds all its keys (insert then delete, so
// the state repeats): the in-place steady state of a maintained view.
func BenchmarkRelCovarAddInto(b *testing.B) {
	r := NewRelCovarRing(benchDegree)
	acc := benchItemView(r, 200)
	ins := benchItemTuple(r, 42)
	del := r.Neg(ins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = r.AddInto(r.AddInto(acc, ins), del)
	}
	benchSink = acc
}

// BenchmarkRelCovarLiftPath is the ring work of one Inventory tuple on
// its leaf-to-root path: lift the label, then multiply with the Item,
// Weather and Location sibling view payloads.
func BenchmarkRelCovarLiftPath(b *testing.B) {
	r := NewRelCovarRing(benchDegree)
	item := benchItemTuple(r, 42)
	weather := r.LiftContinuous(5)(value.Float(21.5))
	location := r.LiftContinuous(6)(value.Float(60000))
	units := r.LiftContinuous(0)
	one := r.One()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := r.Mul(one, units(value.Float(float64(i%9))))
		p = r.Mul(p, item)
		p = r.Mul(p, weather)
		benchSink = r.Mul(p, location)
	}
}
