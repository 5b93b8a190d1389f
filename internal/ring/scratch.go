package ring

import (
	"math/bits"
	"slices"

	"repro/internal/value"
)

// Scratch is an optional Ring extension for rings whose values are
// pointer-shaped (maps, structs with slices) and therefore allocate on
// every pure Add or Mul. It lets accumulation loops that EXCLUSIVELY OWN
// their accumulator fold values in place instead of allocating a fresh
// result per addition: AddInto folds `acc += v`, and MulAddInto folds
// `acc += a × b` without materializing the product, the single hottest
// allocation a join performs on duplicate output tuples. NewSlab gives
// each relation the Slab it keeps the payloads it owns in.
//
// Ownership contract (see also the package doc):
//
//   - AddInto(acc, v) returns acc + v and MulAddInto(acc, a, b) returns
//     acc + a×b; both MAY mutate and reuse acc. The caller must
//     exclusively own acc: acc was produced by a Slab's Own or the
//     value's Clone (deep copies), by Mul/Neg/One/a lift (which always
//     return fresh values), or by a previous AddInto/MulAddInto or a
//     pure Add of two non-zero values by the same owner — never a value
//     that anything else can still reach. A relation.Map owns the
//     payloads it stores under exactly this rule (entries that alias
//     outside state are flagged and excluded). v, a and b are only
//     read. Owning acc includes its backing storage beyond what it
//     holds (a slice's capacity past its length), which either may grow
//     into: a value never shares a backing array with another. When
//     the result is the ring zero, acc is still the caller's — dead
//     storage it may hand back to the Slab it came from.
//
// The results must be indistinguishable from Add(acc, v) and
// Add(acc, Mul(a, b)) to any reader; the ring's scratch-contract tests
// assert this equivalence. Rings with value-type payloads (Ints, Floats)
// gain nothing from the extension and do not implement it; callers
// type-assert and fall back to the pure Add and Mul path.
type Scratch[V any] interface {
	// AddInto returns acc + v, mutating acc when possible. acc must be
	// exclusively owned by the caller; v is never modified.
	AddInto(acc, v V) V
	// MulAddInto returns acc + a×b, mutating acc when possible. acc must
	// be exclusively owned by the caller; a and b are never modified.
	MulAddInto(acc, a, b V) V
	// NewSlab returns an empty Slab for a new relation; relation.Map
	// makes its own on first use.
	NewSlab() Slab[V]
}

// Slab is the payload storage one relation keeps for a Scratch ring.
// Each value it returns is carved from it — a recycled slot or a new
// one cut from a chunk allocated for many — and is exclusively owned by
// the relation, which hands it back with Free when it stops storing
// it: on annihilation, on Reset, or right after use for a scratch
// value. So a relation whose size is steady allocates no payload in
// steady state. Slots are as wide as the payloads they carry:
// RangedCovar's are fixed-width per relation (a view node's lift range
// is fixed), RelCovar's come in power-of-two capacity classes. The
// results are those of the pure operations, bit for bit.
type Slab[V any] interface {
	// Own returns a deep copy of v, carved: how a relation seeds an
	// accumulator from a value it may not mutate.
	Own(v V) V
	// Mul returns a×b: Ring.Mul, carved.
	Mul(a, b V) V
	// Lift returns l(x), given a carved slot as its dst.
	Lift(l Lift[V], x value.Value) V
	// Free returns v to the slab. v must have been carved from it, or
	// be a value nothing else can reach, and is not used again.
	Free(v V)
}

// MulAddInto implements Scratch for the generalized matrix ring: Mul's
// merge emits the product's coefficients into a stack buffer instead of
// a value — a scratch slot of acc's slab when they outgrow it — and
// they fold into acc like AddInto's addend. Each term is the one Mul
// computes and each sum is acc + term, so the result is bit-identical
// to Add(acc, Mul(a, b)).
func (r RelCovarRing) MulAddInto(acc, a, b *RelCovar) *RelCovar {
	if a == nil || b == nil {
		return acc
	}
	if acc == nil {
		return r.Mul(a, b)
	}
	var xbuf [64]coef
	var buf [128]coef
	t := r.mulTerms(xbuf[:0], a, b)
	out, s := buf[:0], acc.slab
	var tmp *RelCovar
	if n := t.bound(); n > len(buf) {
		if s != nil {
			tmp = s.carve(n)
			out = tmp.e
		} else {
			out = make([]coef, 0, n)
		}
	}
	acc = acc.fold(t.merge(out))
	if tmp != nil {
		s.Free(tmp)
	}
	return acc
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
		a = c.grow(missing)[:n+missing]
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

// grow returns c's coefficients with room for k more: in their own
// backing array when it has it, else in a larger one — for a carved c
// a slot of its slab, which takes the old array back with the slot's
// header, and otherwise an array grown like append.
func (c *RelCovar) grow(k int) []coef {
	n := len(c.e) + k
	if c.slab == nil || n <= cap(c.e) {
		return slices.Grow(c.e, k)
	}
	o := c.slab.carve(n)
	o.e = append(o.e, c.e...)
	c.e, o.e = o.e, c.e
	c.slab.Free(o)
	return c.e
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

// MulAddInto implements Scratch for the ranged matrix ring: Mul's blocks
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

// NewSlab implements Scratch: ranged payloads are fixed-width per
// relation, so a relation keeps them in a rangedSlab.
func (RangedCovarRing) NewSlab() Slab[*RangedCovar] { return &rangedSlab{} }

// Ranged slab chunk sizing, in slots: the first chunk is small so the
// short-lived relations of single-tuple maintenance pay for a few
// payloads, and chunks double up to the cap so a large relation
// amortizes to one allocation of headers and one of floats per
// slabMax payloads (relation/alloc.go sizes its entry chunks alike).
const (
	slabMin = 8
	slabMax = 512
)

// rangedSlab is RangedCovar's Slab. A slot is a payload header carved
// from a chunk of headers plus width floats carved from a chunk of
// floats, the header's backing array. width is the widest payload
// carved so far — one relation's payloads all have its width, a scratch
// product or lift is narrower — and every slot is carved that wide, so
// any slot holds any payload the relation makes. Free parks a slot
// with its header, backing array included; a slot narrower than width
// (carved before width grew) is dropped instead.
type rangedSlab struct {
	width int
	hdrs  []RangedCovar
	vals  []float64
	free  []*RangedCovar
	grow  int // slots in the next chunk
}

// carve returns an owned payload over [start, start+n) whose contents
// the caller overwrites.
func (s *rangedSlab) carve(start, n int) *RangedCovar {
	need := n + triLen(n)
	var c *RangedCovar
	if k := len(s.free); k > 0 {
		c = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		if cap(c.v) < need {
			c = nil // parked before width grew: dropped
		}
	}
	if c == nil {
		s.width = max(s.width, need)
		if len(s.hdrs) == 0 || len(s.vals) < s.width {
			s.grow = min(max(s.grow*2, slabMin), slabMax)
			s.hdrs = make([]RangedCovar, s.grow)
			s.vals = make([]float64, s.grow*s.width)
		}
		c = &s.hdrs[0]
		s.hdrs = s.hdrs[1:]
		c.v = s.vals[:0:s.width]
		s.vals = s.vals[s.width:]
	}
	c.Start, c.N, c.v = start, n, c.v[:need]
	return c
}

// Own implements Slab.
func (s *rangedSlab) Own(v *RangedCovar) *RangedCovar {
	if v == nil {
		return nil
	}
	c := s.carve(v.Start, v.N)
	c.C = v.C
	copy(c.v, v.v)
	return c
}

// Mul implements Slab.
func (s *rangedSlab) Mul(a, b *RangedCovar) *RangedCovar {
	if a == nil || b == nil {
		return nil
	}
	lo, hi, start, loScale, hiScale := adjacent(a, b)
	return product(s.carve(start, lo.N+hi.N), a, b, lo, hi, loScale, hiScale)
}

// Lift implements Slab.
func (s *rangedSlab) Lift(l Lift[*RangedCovar], x value.Value) *RangedCovar {
	return l(s.carve(0, 1), x)
}

// Free implements Slab.
func (s *rangedSlab) Free(v *RangedCovar) {
	if v != nil && cap(v.v) >= s.width {
		s.free = append(s.free, v)
	}
}

// NewSlab implements Scratch: a relation keeps its relational COVAR
// payloads in a relSlab.
func (r RelCovarRing) NewSlab() Slab[*RelCovar] { return &relSlab{r: r} }

// relChunkMin and relChunkMax bound the coefficients of one relSlab
// chunk (16 bytes each), which doubles between them like a chunk of
// headers; a wider slot is an allocation of its own.
const (
	relChunkMin = 64
	relChunkMax = 8192
)

// relSlab is RelCovar's Slab. RelCovar payloads vary in width — a
// view's grow as keys arrive, a lift holds at most three coefficients —
// so a slot is a header plus a backing array whose capacity is a power
// of two: the least one holding what the slot is carved for, cut from a
// chunk of coefficients. Free parks a slot on the free list of its
// capacity class, and a carve of n coefficients takes a slot of the
// class of n, so a slot's capacity is under twice the coefficients it
// was carved for. A carved value records its slab, so an in-place fold
// that outgrows its slot moves into a larger one (RelCovar.grow). A
// value of the pure operations the relation came to own is adopted
// when freed, its capacity trimmed down to a power of two.
type relSlab struct {
	r    RelCovarRing
	hdrs []RelCovar
	vals []coef
	free [][]*RelCovar // free[k] holds slots of capacity 1<<k
	grow int           // headers in the next chunk
	size int           // coefficients in the next chunk
}

// carve returns an owned, empty payload whose backing array holds n
// coefficients.
func (s *relSlab) carve(n int) *RelCovar {
	k := bits.Len(uint(max(n, 1) - 1)) // the least k with 1<<k >= n
	if k < len(s.free) {
		if f := s.free[k]; len(f) > 0 {
			c := f[len(f)-1]
			f[len(f)-1] = nil
			s.free[k] = f[:len(f)-1]
			return c
		}
	}
	if len(s.hdrs) == 0 {
		s.grow = min(max(s.grow*2, slabMin), slabMax)
		s.hdrs = make([]RelCovar, s.grow)
	}
	c := &s.hdrs[0]
	s.hdrs = s.hdrs[1:]
	c.m, c.slab = s.r.m, s
	w := 1 << k
	if w > relChunkMax {
		c.e = make([]coef, 0, w)
		return c
	}
	if len(s.vals) < w {
		s.size = min(max(s.size*2, relChunkMin, w), relChunkMax)
		s.vals = make([]coef, s.size)
	}
	c.e = s.vals[:0:w]
	s.vals = s.vals[w:]
	return c
}

// fit returns c, a carved result, or nil, handing c back, when it holds
// nothing; a result under half its slot (one whose merge bound or lift
// width it fell short of) moves to a slot of its own class.
func (s *relSlab) fit(c *RelCovar) *RelCovar {
	switch n := len(c.e); {
	case n == 0:
		s.Free(c)
		return nil
	case 2*n <= cap(c.e):
		o := s.Own(c)
		s.Free(c)
		return o
	}
	return c
}

// Own implements Slab.
func (s *relSlab) Own(v *RelCovar) *RelCovar {
	if v == nil {
		return nil
	}
	c := s.carve(len(v.e))
	c.m, c.e = v.m, append(c.e, v.e...)
	return c
}

// Mul implements Slab: Mul's merge into a slot of its upper bound.
func (s *relSlab) Mul(a, b *RelCovar) *RelCovar {
	if a == nil || b == nil {
		return nil
	}
	var xbuf [64]coef
	t := s.r.mulTerms(xbuf[:0], a, b)
	c := s.carve(t.bound())
	c.e = t.merge(c.e)
	return s.fit(c)
}

// Lift implements Slab: l writes into a slot as wide as a lift gets.
func (s *relSlab) Lift(l Lift[*RelCovar], x value.Value) *RelCovar {
	return s.fit(l(s.carve(liftLen), x))
}

// Free implements Slab.
func (s *relSlab) Free(v *RelCovar) {
	if v == nil || cap(v.e) == 0 {
		return
	}
	k := bits.Len(uint(cap(v.e))) - 1
	v.e, v.slab = v.e[:0:1<<k], s
	if k >= len(s.free) {
		s.free = slices.Grow(s.free, k+1-len(s.free))[:k+1]
	}
	s.free[k] = append(s.free[k], v)
}
