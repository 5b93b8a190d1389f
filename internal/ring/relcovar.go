package ring

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/value"
)

// RelCovar is a value of the generalized degree-m matrix ring: the
// compound aggregate (c, s, Q) whose entries are relational values
// instead of scalars. Continuous attributes contribute 0-dimensional
// relations ({() -> v}); categorical attributes contribute their one-hot
// encoding compactly as {x -> 1} tensors, so Q_XY entries are 0-, 1-, or
// 2-dimensional tensors exactly as color-coded in the paper's UI.
//
// All of it lives in one slice of coefficients sorted by a packed
// 64-bit key (see coef): no maps, no strings, no pointers, so a payload
// is two allocations whatever its degree and the garbage collector
// never looks inside one. The slice holds no zero coefficient; a nil
// *RelCovar is the ring's zero and the only representation of it the
// ring operations produce.
type RelCovar struct {
	m int
	e []coef
}

// coef is one coefficient of a RelCovar. The key packs, from the top:
//
//	16 bits  slot: 0 = c, 1+i = s_i, 1+m+tri(i,j) = Q_ij (i <= j, the
//	         packed upper triangle)
//	24 bits  CatID of the first key part
//	24 bits  CatID of the second key part
//
// A key part is the encoded category value an attribute contributes;
// continuous attributes contribute none. Parts are left-packed — a Q_ij
// coefficient with one part stores it first whichever of i and j it
// came from — which is the id form of the relational ring's key
// concatenation (the empty key concatenates to nothing), so two keys
// are equal here exactly when their concatenated tuple keys are.
// Sorting by key therefore sorts by slot, then by parts.
type coef struct {
	key uint64
	v   float64
}

const (
	slotShift = 2 * catBits
	catMask   = 1<<catBits - 1
	// MaxRelCovarDegree is the largest m whose 1+m+m(m+1)/2 slots fit
	// the 16 slot bits.
	MaxRelCovarDegree = 360
)

func packKey(slot int, p1, p2 CatID) uint64 {
	if p1 == 0 {
		p1, p2 = p2, 0
	}
	return uint64(slot)<<slotShift | uint64(p1)<<catBits | uint64(p2)
}

func (e coef) slot() int     { return int(e.key >> slotShift) }
func (e coef) part1() CatID  { return CatID(e.key>>catBits) & catMask }
func (e coef) part2() CatID  { return CatID(e.key) & catMask }
func sSlot(i int) int        { return 1 + i }
func qSlot(m, i, j int) int  { return 1 + m + triIndex(m, i, j) }
func slotCount(m int) int    { return 1 + m + triLen(m) }
func slotFloor(s int) uint64 { return uint64(s) << slotShift }

// Degree returns the ring degree m.
func (c *RelCovar) Degree() int { return c.m }

// Len returns the number of stored coefficients (0 for the ring zero):
// how many times Visit calls its function.
func (c *RelCovar) Len() int {
	if c == nil {
		return 0
	}
	return len(c.e)
}

// byKey orders coefficients for sorting.
func byKey(p, q coef) int { return cmp.Compare(p.key, q.key) }

// slotRange returns the coefficients of one slot.
func (c *RelCovar) slotRange(slot int) []coef {
	lo := seek(c.e, 0, slotFloor(slot))
	return c.e[lo:seek(c.e, lo, slotFloor(slot+1))]
}

// relOf materializes one slot as the relational value it stands for.
func (c *RelCovar) relOf(slot int) RelVal {
	if c == nil {
		return nil
	}
	es := c.slotRange(slot)
	if len(es) == 0 {
		return nil
	}
	names := cats.snapshot()
	out := make(RelVal, len(es))
	for _, e := range es {
		out[names[e.part1()]+names[e.part2()]] = e.v
	}
	return out
}

// CountScalar returns the count component as a number (0 for the ring
// zero): SUM(1) over the join.
func (c *RelCovar) CountScalar() float64 {
	if c == nil || len(c.e) == 0 || c.e[0].key != 0 {
		return 0
	}
	return c.e[0].v
}

// Count returns the count component as a relational value built on
// demand (nil for the ring zero).
func (c *RelCovar) Count() RelVal { return c.relOf(0) }

// Sum returns the i-th vector component, built on demand.
func (c *RelCovar) Sum(i int) RelVal { return c.relOf(sSlot(i)) }

// Prod returns the (i, j) matrix component, built on demand. For i > j
// it returns the stored (j, i) entry, whose tuple keys are ordered with
// the j-part first; callers that need attribute-labelled tuples should
// query with i <= j.
func (c *RelCovar) Prod(i, j int) RelVal {
	if c == nil {
		return nil
	}
	if i > j {
		i, j = j, i
	}
	return c.relOf(qSlot(c.m, i, j))
}

// Visit calls fn for every coefficient, in key order, until fn returns
// false, without materializing anything: (i, j) is (-1, -1) for the
// count, (i, -1) for s_i and i <= j for Q_ij; p1 and p2 are the
// left-packed key parts (0 for none; CategoryKey decodes one). It is how
// a reader walks a whole payload — Count/Sum/Prod build a map per call.
func (c *RelCovar) Visit(fn func(i, j int, p1, p2 CatID, v float64) bool) {
	if c == nil {
		return
	}
	slot, i, j := 0, -1, -1
	for _, e := range c.e {
		if s := e.slot(); s != slot {
			slot = s
			if s <= c.m {
				i, j = s-1, -1
			} else {
				// Row i of the packed triangle holds m-i entries.
				i, j = 0, s-1-c.m
				for j >= c.m-i {
					j -= c.m - i
					i++
				}
				j += i
			}
		}
		if !fn(i, j, e.part1(), e.part2(), e.v) {
			return
		}
	}
}

// Clone returns a deep copy of c — one slice copy — so the clone stays
// valid however the source's owner evolves afterwards. Cloning nil (the
// ring zero) returns nil.
func (c *RelCovar) Clone() *RelCovar {
	if c == nil {
		return nil
	}
	return &RelCovar{m: c.m, e: slices.Clone(c.e)}
}

// Equal reports element-wise equality of two values from the same ring.
func (c *RelCovar) Equal(o *RelCovar) bool {
	cz, oz := c == nil || len(c.e) == 0, o == nil || len(o.e) == 0
	if cz || oz {
		return cz == oz
	}
	return c.m == o.m && slices.Equal(c.e, o.e)
}

// String renders the compound aggregate with relational entries.
func (c *RelCovar) String() string {
	if c == nil {
		return "(0)"
	}
	var b strings.Builder
	b.WriteString("(" + c.Count().String() + ", [")
	for i := 0; i < c.m; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(c.Sum(i).String())
	}
	b.WriteString("], [")
	for i := 0; i < c.m; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := i; j < c.m; j++ {
			if j > i {
				b.WriteByte(' ')
			}
			b.WriteString(c.Prod(i, j).String())
		}
	}
	b.WriteString("])")
	return b.String()
}

// RelCovarRing is the degree-m matrix ring with relational values: the
// composition of the degree-m matrix ring with the relational ring that
// unifies continuous and categorical attributes.
type RelCovarRing struct{ m int }

// NewRelCovarRing returns the generalized degree-m matrix ring. It
// panics for m outside 1..MaxRelCovarDegree.
func NewRelCovarRing(m int) RelCovarRing {
	if m <= 0 || m > MaxRelCovarDegree {
		panic(fmt.Sprintf("ring: RelCovarRing degree must be in 1..%d", MaxRelCovarDegree))
	}
	return RelCovarRing{m: m}
}

// Degree returns m.
func (r RelCovarRing) Degree() int { return r.m }

// Zero returns nil, the additive identity.
func (r RelCovarRing) Zero() *RelCovar { return nil }

// One returns ({() -> 1}, 0-vector, 0-matrix) where 0 is the empty
// relation.
func (r RelCovarRing) One() *RelCovar {
	return &RelCovar{m: r.m, e: []coef{{0, 1}}}
}

// wrap returns the value holding the coefficients e (nil for none),
// trimmed to an exact-size backing array when e was built to an upper
// bound that shared or cancelling keys did not reach.
func (r RelCovarRing) wrap(e []coef) *RelCovar {
	if len(e) == 0 {
		return nil
	}
	if len(e) < cap(e) {
		e = slices.Clone(e)
	}
	return &RelCovar{m: r.m, e: e}
}

// Add returns the element-wise relational union: one merge of the two
// sorted operands.
func (r RelCovarRing) Add(a, b *RelCovar) *RelCovar {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return r.wrap(addMerge(make([]coef, 0, len(a.e)+countMissing(a.e, b.e)), a.e, b.e))
}

// countMissing returns how many keys of b are not in a.
func countMissing(a, b []coef) int {
	n, i := 0, 0
	for _, e := range b {
		if i = seek(a, i, e.key); i == len(a) || a[i].key != e.key {
			n++
		}
	}
	return n
}

// addMerge appends a + b to out, dropping coefficients that cancel.
func addMerge(out, a, b []coef) []coef {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch ea, eb := a[i], b[j]; {
		case ea.key < eb.key:
			out = append(out, ea)
			i++
		case ea.key > eb.key:
			out = append(out, eb)
			j++
		default:
			if s := ea.v + eb.v; s != 0 {
				out = append(out, coef{ea.key, s})
			}
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Mul returns the product with the degree-m matrix ring formulas, where
// scalar +/× are relational union/join:
//
//	c = ca × cb
//	s_i = cb × sa_i + ca × sb_i
//	Q_ij = cb × Qa_ij + ca × Qb_ij + sa_i × sb_j + sb_i × sa_j
//
// Tuple keys inside Q_ij keep the X_i-part first; since the count
// component always has schema ∅ (its only tuple is the empty one),
// multiplying by c never perturbs key order. On the flat layout that is
// one three-way merge — a scaled by cb, b scaled by ca, and the sorted
// s × s cross terms — into one allocation.
func (r RelCovarRing) Mul(a, b *RelCovar) *RelCovar {
	if a == nil || b == nil {
		return nil
	}
	return r.wrap(r.mulInto(nil, a, b))
}

// mulInto writes the coefficients of a × b (both non-zero) into out's
// backing array when it is large enough, else into a new one of the
// merge's upper bound, and returns them.
func (r RelCovarRing) mulInto(out []coef, a, b *RelCovar) []coef {
	ca, ea := splitCount(a.e)
	cb, eb := splitCount(b.e)
	var xbuf [64]coef
	x := r.crossTerms(xbuf[:0], sPrefix(ea, r.m), sPrefix(eb, r.m))
	if n := 1 + len(ea) + len(eb) + len(x); cap(out) < n {
		out = make([]coef, 0, n)
	}
	out = out[:0]
	if c := ca * cb; c != 0 {
		out = append(out, coef{0, c})
	}
	return mulMerge(out, ea, cb, eb, ca, x)
}

// splitCount separates the count scalar from the s and Q coefficients.
func splitCount(e []coef) (float64, []coef) {
	if len(e) > 0 && e[0].key == 0 {
		return e[0].v, e[1:]
	}
	return 0, e
}

// sPrefix returns the s coefficients of e, which holds no count.
func sPrefix(e []coef, m int) []coef { return e[:seek(e, 0, slotFloor(sSlot(m)))] }

// crossTerms appends sa_i × sb_j + sb_i × sa_j for every slot to x,
// sorted by key with equal keys combined. Pairing every s coefficient
// of a with every one of b covers both terms: a pair (i, j) with i < j
// is the first term of Q_ij, with i > j the second term of Q_ji, and
// with i == j both terms of Q_ii (the two key orders).
func (r RelCovarRing) crossTerms(x, sa, sb []coef) []coef {
	m := r.m
	sorted := true
	var last uint64
	push := func(k uint64, v float64) {
		sorted = sorted && k > last
		last = k
		x = append(x, coef{k, v})
	}
	for _, ea := range sa {
		i, ka := ea.slot()-1, ea.part1()
		for _, eb := range sb {
			j, kb := eb.slot()-1, eb.part1()
			v := ea.v * eb.v
			switch {
			case v == 0:
			case i < j:
				push(packKey(qSlot(m, i, j), ka, kb), v)
			case i > j:
				push(packKey(qSlot(m, j, i), kb, ka), v)
			default:
				push(packKey(qSlot(m, i, i), ka, kb), v)
				push(packKey(qSlot(m, i, i), kb, ka), v)
			}
		}
	}
	if sorted {
		return x
	}
	slices.SortStableFunc(x, byKey)
	n := 0
	for _, e := range x {
		if n > 0 && x[n-1].key == e.key {
			x[n-1].v += e.v
			continue
		}
		x[n] = e
		n++
	}
	return x[:n]
}

// mulMerge appends sa·a + sb·b + x to out (all three sorted by key),
// dropping coefficients that come out zero.
func mulMerge(out, a []coef, sa float64, b []coef, sb float64, x []coef) []coef {
	const end = math.MaxUint64 // above every real key: slots stop at 65340
	head := func(e []coef, i int) uint64 {
		if i == len(e) {
			return end
		}
		return e[i].key
	}
	i, j, n := 0, 0, 0
	ka, kb, kx := head(a, 0), head(b, 0), head(x, 0)
	for {
		k := min(ka, kb, kx)
		if k == end {
			return out
		}
		var s float64
		if ka == k {
			s = a[i].v * sa
			i++
			ka = head(a, i)
		}
		if kb == k {
			s += b[j].v * sb
			j++
			kb = head(b, j)
		}
		if kx == k {
			s += x[n].v
			n++
			kx = head(x, n)
		}
		if s != 0 {
			out = append(out, coef{k, s})
		}
	}
}

// Neg negates every coefficient.
func (r RelCovarRing) Neg(a *RelCovar) *RelCovar {
	if a == nil {
		return nil
	}
	out := make([]coef, len(a.e))
	for i, e := range a.e {
		out[i] = coef{e.key, -e.v}
	}
	return &RelCovar{m: r.m, e: out}
}

// IsZero reports whether a holds no coefficient.
func (r RelCovarRing) IsZero(a *RelCovar) bool { return a == nil || len(a.e) == 0 }

// lifted returns g_X(x) for one attribute: count 1, s_idx = {key -> s},
// Q_idx,idx = {key -> q}, with zero coefficients left out.
func (r RelCovarRing) lifted(idx int, key CatID, s, q float64) *RelCovar {
	e := make([]coef, 1, 3)
	e[0] = coef{0, 1}
	if s != 0 {
		e = append(e, coef{packKey(sSlot(idx), key, 0), s})
	}
	if q != 0 {
		e = append(e, coef{packKey(qSlot(r.m, idx, idx), key, 0), q})
	}
	return &RelCovar{m: r.m, e: e}
}

// LiftContinuous returns g_X for a continuous attribute at index idx:
// s_idx = {() -> x}, Q_idx,idx = {() -> x²}. x == 0 lifts to One: a
// zero coefficient smuggled through Add's empty-side fast paths would
// break associativity up to representation, which cross-shard partial
// merges rely on.
func (r RelCovarRing) LiftContinuous(idx int) Lift[*RelCovar] {
	r.checkIdx(idx)
	return func(_ *RelCovar, v value.Value) *RelCovar {
		x := v.AsFloat()
		return r.lifted(idx, 0, x, x*x)
	}
}

// LiftCategorical returns g_X for a categorical attribute at index idx:
// s_idx = {x -> 1}, Q_idx,idx = {x -> 1} — the compact one-hot encoding.
// It panics once the category dictionary is full (see CatID).
func (r RelCovarRing) LiftCategorical(idx int) Lift[*RelCovar] {
	r.checkIdx(idx)
	return func(_ *RelCovar, v value.Value) *RelCovar {
		var buf [32]byte
		id, err := cats.intern(v.AppendEncode(buf[:0]))
		if err != nil {
			panic(err)
		}
		return r.lifted(idx, id, 1, 1)
	}
}

// Bin returns the index of the equi-width bin [k·width, (k+1)·width)
// that x falls into: floor(x / width), for either sign of x.
func Bin(x, width float64) int64 { return int64(math.Floor(x / width)) }

// LiftBinned returns g_X for a continuous attribute treated as
// categorical by discretizing into equi-width bins of the given width
// (see Bin); mutual information over continuous attributes uses it.
func (r RelCovarRing) LiftBinned(idx int, width float64) Lift[*RelCovar] {
	r.checkIdx(idx)
	if width <= 0 {
		panic("ring: bin width must be positive")
	}
	cat := r.LiftCategorical(idx)
	return func(_ *RelCovar, v value.Value) *RelCovar {
		return cat(nil, value.Int(Bin(v.AsFloat(), width)))
	}
}

func (r RelCovarRing) checkIdx(idx int) {
	if idx < 0 || idx >= r.m {
		panic(fmt.Sprintf("ring: lift index %d out of range for degree %d", idx, r.m))
	}
}
