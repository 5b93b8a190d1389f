package ring

import (
	"fmt"
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
	p := r.LiftContinuous(1)(nil, value.Float(float64(1+k%17)))
	p = r.Mul(p, r.LiftCategorical(2)(nil, value.Int(int64(k%31))))
	p = r.Mul(p, r.LiftCategorical(3)(nil, value.Int(int64(k%11))))
	return r.Mul(p, r.LiftCategorical(4)(nil, value.Int(int64(k%5))))
}

// BenchmarkRelCovarMul multiplies a single-tuple delta payload with a
// stored sibling view payload, the product a delta join computes.
func BenchmarkRelCovarMul(b *testing.B) {
	r := NewRelCovarRing(benchDegree)
	view := benchItemView(r, 200)
	delta := r.LiftContinuous(0)(nil, value.Float(3))
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

// foldCards are the category counts of the Retailer analysis features
// 3..6 (subcategory, category, categoryCluster, zip); features 0..2 are
// continuous.
var foldCards = [benchDegree]int{3: 31, 4: 11, 5: 5, 6: 97}

// foldTuple is the product of tuple k's lifts of feats.
func foldTuple(r RelCovarRing, k int, feats ...int) *RelCovar {
	p := r.One()
	for _, i := range feats {
		if foldCards[i] == 0 {
			p = r.Mul(p, r.LiftContinuous(i)(nil, value.Float(float64(1+(7*k+i)%13))))
		} else {
			p = r.Mul(p, r.LiftCategorical(i)(nil, value.Int(int64((3*k+i)%foldCards[i]))))
		}
	}
	return p
}

// foldAcc sums tuples 1, 2, ... of feats until the sum holds at least
// n coefficients.
func foldAcc(r RelCovarRing, n int, feats ...int) *RelCovar {
	var acc *RelCovar
	for k := 1; acc.Len() < n; k++ {
		acc = r.AddInto(acc, foldTuple(r, k, feats...))
	}
	return acc
}

// BenchmarkRelCovarFold is the in-place fold at the shapes the Retailer
// analysis workload measures: a view payload of ~203 coefficients
// taking a ~27-coefficient addend (AddInto), and a root group of ~500
// coefficients taking a ~40-term product (MulAddInto). Each iteration
// adds an operand and then its negation, so the state repeats; the
// present case finds every key stored, the new case brings keys the
// accumulator lacks and cancels them again — the merge into spare
// capacity, then the zero-dropping pass.
func BenchmarkRelCovarFold(b *testing.B) {
	r := NewRelCovarRing(benchDegree)
	addFeats := []int{0, 1, 3, 4, 5, 6}
	view := foldAcc(r, 203, addFeats...)
	root := foldAcc(r, 500, 0, 1, 2, 3, 4, 5, 6)
	item := foldTuple(r, 1000, 0, 3, 4, 5)
	loc := r.Add(foldTuple(r, 1000, 1, 2, 6), foldTuple(r, 1001, 1, 2, 6))
	for _, c := range []struct {
		name string
		acc  *RelCovar
		x, y *RelCovar // y nil: AddInto(acc, x)
	}{
		{"add/present", view, foldTuple(r, 1, addFeats...), nil},
		{"add/new", view, foldTuple(r, 1000, addFeats...), nil},
		{"muladd/present", root, foldTuple(r, 1, 0, 3, 4, 5), foldTuple(r, 1, 1, 2, 6)},
		{"muladd/new", root, item, loc},
	} {
		n := c.x.Len()
		if c.y != nil {
			n = r.Mul(c.x, c.y).Len()
		}
		b.Run(fmt.Sprintf("%s/%d+%d", c.name, c.acc.Len(), n), func(b *testing.B) {
			acc := c.acc.Clone()
			nx := r.Neg(c.x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.y == nil {
					acc = r.AddInto(r.AddInto(acc, c.x), nx)
				} else {
					acc = r.MulAddInto(r.MulAddInto(acc, c.x, c.y), nx, c.y)
				}
			}
			benchSink = acc
		})
	}
}

// BenchmarkRelCovarLiftPath is the ring work of one Inventory tuple on
// its leaf-to-root path: lift the label, then multiply with the Item,
// Weather and Location sibling view payloads.
func BenchmarkRelCovarLiftPath(b *testing.B) {
	r := NewRelCovarRing(benchDegree)
	item := benchItemTuple(r, 42)
	weather := r.LiftContinuous(5)(nil, value.Float(21.5))
	location := r.LiftContinuous(6)(nil, value.Float(60000))
	units := r.LiftContinuous(0)
	one := r.One()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := r.Mul(one, units(nil, value.Float(float64(i%9))))
		p = r.Mul(p, item)
		p = r.Mul(p, weather)
		benchSink = r.Mul(p, location)
	}
}
