package ring

import "slices"

// Scratch is an optional Ring extension for rings whose values are
// pointer-shaped (maps, structs with slices) and therefore allocate on
// every pure Add. It lets accumulation loops that EXCLUSIVELY OWN their
// accumulator fold values in place instead of allocating a fresh result
// per addition.
//
// Ownership contract (see also the package doc):
//
//   - AddInto(acc, v) returns acc + v and MAY mutate and reuse acc.
//     The caller must exclusively own acc: acc was produced by Own, by
//     Mul/Neg/One/a lift (which always return fresh values), or by a
//     previous AddInto or a pure Add of two non-zero values by the same
//     owner — never a value that anything else can still reach. A
//     relation.Map owns the payloads it stores under exactly this rule
//     (entries that alias outside state are flagged and excluded). v is
//     only read. Owning acc includes its backing storage beyond what
//     it holds (a slice's capacity past its length), which AddInto may
//     grow into: a value never shares a backing array with another.
//   - Own(v) returns a value semantically equal to v that the caller
//     exclusively owns (a deep copy for pointer-shaped values). It is
//     how an accumulation loop seeds its accumulator from a shared
//     value it is not allowed to mutate.
//
// The result of AddInto must be indistinguishable from Add(acc, v) to
// any reader; the ring's merge-contract tests assert this equivalence.
// Rings with value-type payloads (Ints, Floats) gain nothing from the
// extension and do not implement it; callers type-assert and fall back
// to the pure Add path.
type Scratch[V any] interface {
	// AddInto returns acc + v, mutating acc when possible. acc must be
	// exclusively owned by the caller; v is never modified.
	AddInto(acc, v V) V
	// Own returns an exclusively-owned value equal to v.
	Own(v V) V
}

// FMA is a second optional extension for fused multiply-accumulate:
// joins fold `acc += a × b` straight into their accumulator without
// materializing the product, the single hottest allocation a hash join
// performs on duplicate output tuples. The ownership rules are
// Scratch's: acc is exclusively owned by the caller (or the ring zero),
// a and b are only read, and the result must be indistinguishable from
// Add(acc, Mul(a, b)). Callers fall back to Mul + Scratch.AddInto (or
// the fully pure path) when a ring does not implement FMA.
type FMA[V any] interface {
	// MulAddInto returns acc + a×b, mutating acc when possible.
	MulAddInto(acc, a, b V) V
}

// MulAddInto implements FMA for the generalized matrix ring: Mul's
// merge emits the product's coefficients into a stack buffer instead of
// a value, and they fold into acc like AddInto's addend. Each term is
// the one Mul computes and each sum is acc + term, so the result is
// bit-identical to Add(acc, Mul(a, b)).
func (r RelCovarRing) MulAddInto(acc, a, b *RelCovar) *RelCovar {
	if a == nil || b == nil {
		return acc
	}
	if acc == nil {
		return r.Mul(a, b)
	}
	var buf [128]coef
	return acc.fold(r.mulInto(buf[:0], a, b))
}

// AddInto implements Scratch for the generalized matrix ring: v's
// coefficients fold into acc in place (see fold), so a small delta
// costs its own size plus, when it brings new keys, the tail of acc
// they are merged into — never a rebuild of the stored payload.
func (r RelCovarRing) AddInto(acc, v *RelCovar) *RelCovar {
	if v == nil {
		return acc
	}
	if acc == nil {
		return v.Clone()
	}
	return acc.fold(v.e)
}

// fold adds b — sorted, without zeros — into c's coefficients, which c
// owns up to the capacity of their backing array, and returns c, or nil
// when nothing is left. Every sum is c's coefficient + b's, as in
// addMerge, so the result is bit-identical to Add.
//
// One pass seeks each key of b through c by galloping search: a key
// already present is summed in place, and a sum that cancels is left as
// a zero and its index remembered rather than ending the pass; a key
// not present is only counted. The missing keys then merge in from the
// back, into spare capacity grown like append, so only the coefficients
// above the smallest new key move. Last, one pass from the first zero
// drops the zeros.
func (c *RelCovar) fold(b []coef) *RelCovar {
	a := c.e
	i, missing, zero := 0, 0, -1
	for _, e := range b {
		if i = seek(a, i, e.key); i == len(a) || a[i].key != e.key {
			missing++
			continue
		}
		s := a[i].v + e.v
		if a[i].v = s; s == 0 && zero < 0 {
			zero = i
		}
		i++
	}
	if missing > 0 {
		n := len(a)
		a = slices.Grow(a, missing)[:n+missing]
		// w-i missing keys are left to place: once it is 0, a[:i] and
		// the rest of b, all present in it, are where they belong.
		i, j, w := n-1, len(b)-1, n+missing-1
		for w > i {
			switch {
			case i >= 0 && a[i].key > b[j].key:
				a[w] = a[i]
				i--
				w--
			case i >= 0 && a[i].key == b[j].key:
				j-- // folded by the first pass
			default:
				a[w] = b[j]
				j--
				w--
			}
		}
	}
	if zero >= 0 {
		// The merge only moved coefficients up, so none before the
		// first zero's old index is zero.
		n := zero
		for _, e := range a[zero:] {
			if e.v != 0 {
				a[n] = e
				n++
			}
		}
		a = a[:n]
	}
	if len(a) == 0 {
		return nil
	}
	c.e = a
	return c
}

// seek returns the first index at or after i whose key is >= k, given
// that every key before i is smaller: a galloping search, O(1) when the
// answer is i itself and O(log distance) otherwise.
func seek(e []coef, i int, k uint64) int {
	step := 1
	for p := i; p < len(e) && e[p].key < k; p = i + step - 1 {
		i = p + 1
		step <<= 1
	}
	hi := min(i+step-1, len(e))
	for i < hi {
		if mid := int(uint(i+hi) >> 1); e[mid].key < k {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	return i
}

// Own implements Scratch: a deep copy of v.
func (r RelCovarRing) Own(v *RelCovar) *RelCovar { return v.Clone() }

// MulAddInto implements FMA for the ranged matrix ring: Mul's blocks
// accumulated in place into acc's backing array, so a fused join folds
// `acc += a × b` without building the product. Every term is rounded to
// float64 before it is added (the explicit conversions forbid fusing
// the multiply into the add), so the result is bit-identical to
// Add(acc, Mul(a, b)). acc must cover the product's range.
func (r RangedCovarRing) MulAddInto(acc, a, b *RangedCovar) *RangedCovar {
	if a == nil || b == nil {
		return acc
	}
	if acc == nil {
		return r.Mul(a, b)
	}
	lo, hi, start, loScale, hiScale := adjacent(a, b)
	n := lo.N
	sameRange(acc, start, n+hi.N)
	acc.C += float64(a.C * b.C)
	s, q := acc.v[:acc.N], acc.v[acc.N:]
	ls, lq := lo.v[:n], lo.v[n:]
	hs, hq := hi.v[:hi.N], hi.v[hi.N:]
	for i, x := range ls {
		s[i] += float64(loScale * x)
	}
	for j, x := range hs {
		s[n+j] += float64(hiScale * x)
	}
	k, p := 0, 0
	for i, x := range ls {
		for _, y := range lq[p : p+n-i] {
			q[k] += float64(loScale * y)
			k++
		}
		p += n - i
		for _, y := range hs {
			q[k] += float64(x * y)
			k++
		}
	}
	for _, y := range hq {
		q[k] += float64(hiScale * y)
		k++
	}
	return acc
}

// AddInto implements Scratch for the ranged matrix ring: one
// element-wise pass over the backing array into acc's. Like Add it
// requires identical ranges.
func (r RangedCovarRing) AddInto(acc, v *RangedCovar) *RangedCovar {
	if v == nil {
		return acc
	}
	if acc == nil {
		return v.Clone()
	}
	sameRange(acc, v.Start, v.N)
	acc.C += v.C
	for i, x := range v.v {
		acc.v[i] += x
	}
	return acc
}

// Own implements Scratch: a deep copy of v.
func (r RangedCovarRing) Own(v *RangedCovar) *RangedCovar { return v.Clone() }
