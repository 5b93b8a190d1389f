package ring

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// refCovar is the representation RelCovar had before the flat layout —
// one RelVal map per component — kept here, with the formulas that ran
// on it, as the reference the flat kernel is checked against.
type refCovar struct {
	m int
	C RelVal
	S []RelVal // length m
	Q []RelVal // packed upper triangle
}

func refOne(m int) *refCovar {
	return &refCovar{m: m, C: RelOne(), S: make([]RelVal, m), Q: make([]RelVal, triLen(m))}
}

func (c *refCovar) clone() *refCovar {
	if c == nil {
		return nil
	}
	out := &refCovar{m: c.m, C: c.C.Clone(), S: make([]RelVal, len(c.S)), Q: make([]RelVal, len(c.Q))}
	for i, s := range c.S {
		out.S[i] = s.Clone()
	}
	for i, q := range c.Q {
		out.Q[i] = q.Clone()
	}
	return out
}

func refIsZero(a *refCovar) bool {
	if a == nil {
		return true
	}
	n := len(a.C)
	for _, s := range a.S {
		n += len(s)
	}
	for _, q := range a.Q {
		n += len(q)
	}
	return n == 0
}

func refEqual(c, o *refCovar) bool {
	if c == nil || o == nil {
		return c == o
	}
	if c.m != o.m || !c.C.Equal(o.C) {
		return false
	}
	for i := range c.S {
		if !c.S[i].Equal(o.S[i]) {
			return false
		}
	}
	for i := range c.Q {
		if !c.Q[i].Equal(o.Q[i]) {
			return false
		}
	}
	return true
}

// relAddInto accumulates src (scaled by c) into dst, returning dst
// (allocating it if nil): the in-place sum the reference formulas fold
// with. A sum that cancels drops its key.
func relAddInto(dst, src RelVal, c float64) RelVal {
	if c == 0 || len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(RelVal, len(src))
	}
	for k, v := range src {
		s := dst[k] + v*c
		if s == 0 {
			delete(dst, k)
		} else {
			dst[k] = s
		}
	}
	return dst
}

func refAdd(a, b *refCovar) *refCovar {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	var rel Relational
	out := &refCovar{m: a.m, C: rel.Add(a.C, b.C), S: make([]RelVal, a.m), Q: make([]RelVal, triLen(a.m))}
	for i := range out.S {
		out.S[i] = rel.Add(a.S[i], b.S[i])
	}
	for i := range out.Q {
		out.Q[i] = rel.Add(a.Q[i], b.Q[i])
	}
	return out
}

func refMul(a, b *refCovar) *refCovar {
	if a == nil || b == nil {
		return nil
	}
	var rel Relational
	m := a.m
	out := &refCovar{m: m, S: make([]RelVal, m), Q: make([]RelVal, triLen(m))}
	ca, cb := a.C.Scalar(), b.C.Scalar()
	if ca*cb != 0 {
		out.C = RelVal{"": ca * cb}
	}
	for i := 0; i < m; i++ {
		out.S[i] = relAddInto(relAddInto(nil, a.S[i], cb), b.S[i], ca)
	}
	k := 0
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			q := relAddInto(nil, a.Q[k], cb)
			q = relAddInto(q, b.Q[k], ca)
			q = relAddInto(q, rel.Mul(a.S[i], b.S[j]), 1)
			q = relAddInto(q, rel.Mul(b.S[i], a.S[j]), 1)
			out.Q[k] = q
			k++
		}
	}
	return out
}

func refNeg(a *refCovar) *refCovar {
	if a == nil {
		return nil
	}
	var rel Relational
	out := &refCovar{m: a.m, C: rel.Neg(a.C), S: make([]RelVal, a.m), Q: make([]RelVal, triLen(a.m))}
	for i := range out.S {
		out.S[i] = rel.Neg(a.S[i])
	}
	for i := range out.Q {
		out.Q[i] = rel.Neg(a.Q[i])
	}
	return out
}

func refAddInto(acc, v *refCovar) *refCovar {
	if v == nil {
		return acc
	}
	if acc == nil {
		return v.clone()
	}
	acc.C = relAddInto(acc.C, v.C, 1)
	for i := range acc.S {
		acc.S[i] = relAddInto(acc.S[i], v.S[i], 1)
	}
	for i := range acc.Q {
		acc.Q[i] = relAddInto(acc.Q[i], v.Q[i], 1)
	}
	return acc
}

func refMulAddInto(acc, a, b *refCovar) *refCovar {
	if a == nil || b == nil {
		return acc
	}
	if acc == nil {
		return refMul(a, b)
	}
	var rel Relational
	m := a.m
	ca, cb := a.C.Scalar(), b.C.Scalar()
	acc.C = relAddInto(acc.C, RelVal{"": ca * cb}, 1)
	for i := 0; i < m; i++ {
		acc.S[i] = relAddInto(relAddInto(acc.S[i], a.S[i], cb), b.S[i], ca)
	}
	k := 0
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			q := relAddInto(acc.Q[k], a.Q[k], cb)
			q = relAddInto(q, b.Q[k], ca)
			q = relAddInto(q, rel.Mul(a.S[i], b.S[j]), 1)
			q = relAddInto(q, rel.Mul(b.S[i], a.S[j]), 1)
			acc.Q[k] = q
			k++
		}
	}
	return acc
}

func refLift(m, idx int, key string, s, q float64) *refCovar {
	c := refOne(m)
	if s != 0 {
		c.S[idx] = RelVal{key: s}
	}
	if q != 0 {
		c.Q[triIndex(m, idx, idx)] = RelVal{key: q}
	}
	return c
}

// agrees reports how the flat value differs from the reference, "" when
// they hold the same coefficients. It also checks the flat invariants:
// strictly ascending keys, no zero coefficient, nil for zero.
func agrees(got *RelCovar, want *refCovar) string {
	if refIsZero(want) {
		if got != nil {
			return fmt.Sprintf("got %v, want the nil zero", got)
		}
		return ""
	}
	if got == nil {
		return "got nil, want a non-zero value"
	}
	for i, e := range got.e {
		if e.v == 0 {
			return fmt.Sprintf("explicit zero coefficient at %d", i)
		}
		if i > 0 && got.e[i-1].key >= e.key {
			return fmt.Sprintf("keys not strictly ascending at %d", i)
		}
	}
	// The visitor must walk exactly the reference's coefficients.
	visited, diff := 0, ""
	got.Visit(func(i, j int, p1, p2 CatID, v float64) bool {
		rel := want.C
		switch {
		case i >= 0 && j < 0:
			rel = want.S[i]
		case i >= 0:
			rel = want.Q[triIndex(want.m, i, j)]
		}
		if w, ok := rel[CategoryKey(p1)+CategoryKey(p2)]; !ok || w != v {
			diff = fmt.Sprintf("visited (%d, %d) key (%d, %d) = %v, reference has %v", i, j, p1, p2, v, rel)
		}
		visited++
		return diff == ""
	})
	total := len(want.C)
	for _, rel := range append(append([]RelVal(nil), want.S...), want.Q...) {
		total += len(rel)
	}
	if diff == "" && visited != total {
		diff = fmt.Sprintf("visited %d coefficients, reference holds %d", visited, total)
	}
	if diff != "" {
		return diff
	}
	if got.CountScalar() != want.C.Scalar() || !got.Count().Equal(want.C) {
		return fmt.Sprintf("count %v (scalar %v), want %v", got.Count(), got.CountScalar(), want.C)
	}
	for i := 0; i < want.m; i++ {
		if !got.Sum(i).Equal(want.S[i]) {
			return fmt.Sprintf("s_%d = %v, want %v", i, got.Sum(i), want.S[i])
		}
		for j := i; j < want.m; j++ {
			if w := want.Q[triIndex(want.m, i, j)]; !got.Prod(i, j).Equal(w) {
				return fmt.Sprintf("Q_%d,%d = %v, want %v", i, j, got.Prod(i, j), w)
			}
		}
	}
	return ""
}

// pairGen draws (flat, reference) value pairs built by the same ring
// expression from a byte string, so one generator serves the seeded
// differential test and the fuzz target. Coefficients are small dyadic
// numbers: every sum and product is exact, so the two sides must agree
// bit for bit whatever order each accumulates in.
type pairGen struct {
	r    RelCovarRing
	data []byte
}

func (g *pairGen) next() int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b)
}

var (
	genScalars = []float64{0, 1, -1, 2, 0.5, -2, 3, 0}
	genCats    = []value.Value{value.Int(0), value.Int(1), value.String("a"), value.String("b"), value.Float(1.5), value.Null()}
)

// lift draws one lift of feature idx: continuous (zero included), or
// categorical — on any feature, so one slot sees keyed and unkeyed
// coefficients and the left-packing of mixed pairs is exercised.
func (g *pairGen) lift(idx int) (*RelCovar, *refCovar) {
	m := g.r.m
	switch b := g.next(); {
	case b%8 == 7:
		return g.r.One(), refOne(m)
	case b%2 == 0:
		x := genScalars[b/2%len(genScalars)]
		return g.r.LiftContinuous(idx)(nil, value.Float(x)), refLift(m, idx, "", x, x*x)
	default:
		v := genCats[b/2%len(genCats)]
		return g.r.LiftCategorical(idx)(nil, v), refLift(m, idx, value.Tuple{v}.Encode(), 1, 1)
	}
}

// value draws a sum of lift products. A product may lift one feature
// twice (same-feature cross terms s_i × s_i) and a sum may subtract a
// product it added before (exact cancellation, down to nil).
func (g *pairGen) value() (*RelCovar, *refCovar) {
	m := g.r.m
	var total *RelCovar
	var rtotal *refCovar
	var prev *RelCovar
	var rprev *refCovar
	for rows := g.next() % 4; rows > 0; rows-- {
		p, rp := g.r.One(), refOne(m)
		if prev != nil && g.next()%4 == 0 {
			p, rp = g.r.Neg(prev), refNeg(rprev)
		} else {
			for n := 1 + g.next()%(m+1); n > 0; n-- {
				l, rl := g.lift(g.next() % m)
				if g.next()%2 == 0 {
					p, rp = g.r.Mul(p, l), refMul(rp, rl)
				} else {
					p, rp = g.r.Mul(l, p), refMul(rl, rp)
				}
			}
			if g.next()%4 == 0 {
				p, rp = g.r.Neg(p), refNeg(rp)
			}
			prev, rprev = p, rp
		}
		total, rtotal = g.r.Add(total, p), refAdd(rtotal, rp)
	}
	return total, rtotal
}

// checkKernel draws three values and checks every ring operation of the
// flat kernel against the reference formulas, and that the pure ones
// leave their operands alone.
func checkKernel(t *testing.T, m int, data []byte) {
	t.Helper()
	r := NewRelCovarRing(m)
	g := &pairGen{r: r, data: data}
	a, ra := g.value()
	b, rb := g.value()
	c, rc := g.value()
	for name, p := range map[string]struct {
		got  *RelCovar
		want *refCovar
	}{"a": {a, ra}, "b": {b, rb}, "c": {c, rc}} {
		if d := agrees(p.got, p.want); d != "" {
			t.Fatalf("m=%d generated %s: %s", m, name, d)
		}
	}
	a0, b0, c0 := a.Clone(), b.Clone(), c.Clone()
	check := func(op string, got *RelCovar, want *refCovar) {
		t.Helper()
		if d := agrees(got, want); d != "" {
			t.Fatalf("m=%d %s: %s\n a=%v\n b=%v\n c=%v", m, op, d, a0, b0, c0)
		}
	}
	check("Add(a,b)", r.Add(a, b), refAdd(ra, rb))
	check("Mul(a,b)", r.Mul(a, b), refMul(ra, rb))
	check("Mul(b,a)", r.Mul(b, a), refMul(rb, ra))
	check("Mul(a,a)", r.Mul(a, a), refMul(ra, ra))
	check("Neg(a)", r.Neg(a), refNeg(ra))
	check("Add(a,Neg(a))", r.Add(a, r.Neg(a)), nil)
	if got, want := a.Equal(b), refIsZero(ra) && refIsZero(rb) || !refIsZero(ra) && !refIsZero(rb) && refEqual(ra, rb); got != want {
		t.Fatalf("m=%d Equal(a,b) = %v, reference %v\n a=%v\n b=%v", m, got, want, a0, b0)
	}
	if r.IsZero(a) != refIsZero(ra) {
		t.Fatalf("m=%d IsZero(a) = %v, reference %v", m, r.IsZero(a), refIsZero(ra))
	}
	if !a.Equal(a0) || !b.Equal(b0) || !c.Equal(c0) {
		t.Fatalf("m=%d a pure operation modified an operand", m)
	}
	// The in-place operations run on clones they own.
	sum := r.AddInto(c.Clone(), a)
	check("AddInto(c,a)", sum, refAddInto(rc.clone(), ra))
	check("AddInto(c,a) then Neg(a)", r.AddInto(sum, r.Neg(a)), rc)
	check("AddInto(c,Neg(c))", r.AddInto(c.Clone(), r.Neg(c)), nil)
	check("MulAddInto(c,a,b)", r.MulAddInto(c.Clone(), a, b), refMulAddInto(rc.clone(), ra, rb))
	if !a.Equal(a0) || !b.Equal(b0) || !c.Equal(c0) {
		t.Fatalf("m=%d an in-place operation modified a read-only operand", m)
	}
	checkFoldChain(t, r, [3]*RelCovar{a, b, c}, [3]*refCovar{ra, rb, rc})
}

// checkFoldChain folds a chain of AddInto and MulAddInto calls over
// the operands (a, b, c) and their negations into one owned accumulator
// carved from a slab and seeded from c, so steps bring new keys, cancel
// earlier ones, grow the accumulator's spare capacity and outgrow its
// slot. After every step the accumulator must keep the flat invariants
// and equal the pure Add(acc, Mul(x, y)) chain bit for bit; at the end
// it must agree with the reference chain, a clone taken mid-chain must
// be unchanged, and neither the operands nor the reference ones may
// have moved.
func checkFoldChain(t *testing.T, r RelCovarRing, ops [3]*RelCovar, refs [3]*refCovar) {
	t.Helper()
	a, b, c := ops[0], ops[1], ops[2]
	ra, rb, rc := refs[0], refs[1], refs[2]
	na, nb, nc := r.Neg(a), r.Neg(b), r.Neg(c)
	rna, rnb, rnc := refNeg(ra), refNeg(rb), refNeg(rc)
	op0 := [3]*RelCovar{a.Clone(), b.Clone(), c.Clone()}
	ref0 := [3]*refCovar{ra.clone(), rb.clone(), rc.clone()}
	steps := []struct {
		name   string
		x, y   *RelCovar // y nil: AddInto(acc, x)
		rx, ry *refCovar
	}{
		{"AddInto(a)", a, nil, ra, nil},
		{"MulAddInto(a,b)", a, b, ra, rb},
		{"AddInto(-a)", na, nil, rna, nil},
		{"MulAddInto(b,a)", b, a, rb, ra},
		{"AddInto(b)", b, nil, rb, nil},
		{"MulAddInto(-a,b)", na, b, rna, rb},
		{"AddInto(-c)", nc, nil, rnc, nil},
		{"MulAddInto(c,c)", c, c, rc, rc},
		{"AddInto(-b)", nb, nil, rnb, nil},
		{"MulAddInto(-b,a)", nb, a, rnb, ra},
		{"MulAddInto(-c,c)", nc, c, rnc, rc},
	}
	// The accumulator lives in a slab, as a relation's payloads do: Own
	// seeds it, a step that cancels it hands its slot back, and after
	// every other step it moves to a new carve and frees its old slot,
	// so later steps carve, grow into and fold into recycled slots.
	sb := r.NewSlab()
	acc, pure, racc := sb.Own(c), c, rc.clone()
	var mid, mid0 *RelCovar
	for k, s := range steps {
		prev := acc
		if s.y == nil {
			acc, pure, racc = r.AddInto(acc, s.x), r.Add(pure, s.x), refAddInto(racc, s.rx)
		} else {
			acc, pure, racc = r.MulAddInto(acc, s.x, s.y), r.Add(pure, r.Mul(s.x, s.y)), refMulAddInto(racc, s.rx, s.ry)
		}
		if acc == nil && prev != nil {
			sb.Free(prev)
		}
		if acc != nil {
			for i, e := range acc.e {
				if e.v == 0 || i > 0 && acc.e[i-1].key >= e.key {
					t.Fatalf("m=%d fold chain step %d %s: coefficient %d breaks the invariants: %v", r.m, k, s.name, i, acc.e)
				}
			}
		}
		if !acc.Equal(pure) {
			t.Fatalf("m=%d fold chain step %d %s: in place %v, pure %v", r.m, k, s.name, acc, pure)
		}
		if k == len(steps)/2 {
			mid, mid0 = acc.Clone(), pure
		}
		if k%2 == 1 && acc != nil {
			next := sb.Own(acc)
			sb.Free(acc)
			acc = next
		}
	}
	if d := agrees(acc, racc); d != "" {
		t.Fatalf("m=%d fold chain: %s", r.m, d)
	}
	if !mid.Equal(mid0) {
		t.Fatalf("m=%d fold chain: the mid-chain clone changed to %v, want %v", r.m, mid, mid0)
	}
	for i, op := range ops {
		if !op.Equal(op0[i]) || !refEqual(refs[i], ref0[i]) && !(refIsZero(refs[i]) && refIsZero(ref0[i])) {
			t.Fatalf("m=%d fold chain modified operand %d", r.m, i)
		}
	}
}

var kernelDegrees = []int{1, 2, 3, 7}

// TestRelCovarAgainstMapReference is the differential test of the flat
// kernel: random sums of lift products, all operations, every degree
// the engines use.
func TestRelCovarAgainstMapReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(19))
	for _, m := range kernelDegrees {
		for n := 0; n < 400; n++ {
			data := make([]byte, 160)
			rnd.Read(data)
			checkKernel(t, m, data)
		}
	}
}

// FuzzRelCovarKernel runs the same check on fuzzer-chosen expressions.
func FuzzRelCovarKernel(f *testing.F) {
	rnd := rand.New(rand.NewSource(7))
	for n := 0; n < 8; n++ {
		data := make([]byte, 96)
		rnd.Read(data)
		f.Add(uint8(n), data)
	}
	f.Fuzz(func(t *testing.T, deg uint8, data []byte) {
		checkKernel(t, kernelDegrees[int(deg)%len(kernelDegrees)], data)
	})
}

// TestRelCovarCrossTermKeys pins the cases the generator reaches only
// by chance: a zero-valued continuous lift adds nothing, the two key
// orders of a same-feature cross term, and the i-part-first orientation
// of Q_ij under either multiplication order.
func TestRelCovarCrossTermKeys(t *testing.T) {
	r := NewRelCovarRing(2)
	if z := r.LiftContinuous(0)(nil, value.Float(0)); !z.Equal(r.One()) {
		t.Errorf("LiftContinuous(0) = %v, want One", z)
	}
	x, y := r.LiftCategorical(0)(nil, value.String("x")), r.LiftCategorical(0)(nil, value.String("y"))
	q := r.Mul(x, y).Prod(0, 0)
	want := RelVal{value.T("x").Encode(): 1, value.T("y").Encode(): 1, value.T("x", "y").Encode(): 1, value.T("y", "x").Encode(): 1}
	if !q.Equal(want) {
		t.Errorf("Q_00 of x×y = %v, want %v", q, want)
	}
	if q := r.Mul(x, x).Prod(0, 0); q.Get(value.T("x", "x")) != 2 {
		t.Errorf("Q_00 of x×x = %v, want (x, x)->2", q)
	}
	z := r.LiftCategorical(1)(nil, value.String("z"))
	for _, p := range []*RelCovar{r.Mul(x, z), r.Mul(z, x)} {
		if q := p.Prod(0, 1); len(q) != 1 || q.Get(value.T("x", "z")) != 1 {
			t.Errorf("Q_01 = %v, want {(x, z)->1}", q)
		}
	}
	// A continuous part packs to nothing on either side of the key.
	cx := r.LiftContinuous(0)(nil, value.Float(3))
	for _, p := range []*RelCovar{r.Mul(cx, z), r.Mul(z, cx)} {
		if q := p.Prod(0, 1); len(q) != 1 || q.Get(value.T("z")) != 3 {
			t.Errorf("Q_01 = %v, want {(z)->3}", q)
		}
	}
}
