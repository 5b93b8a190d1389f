package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ring"
	"repro/internal/value"
)

// checkIndexConsistency asserts every registered index of m holds
// exactly the live entries of m: each entry appears exactly once under
// its projected key, and total postings equal Len. This is the
// invariant incremental maintenance (Merge/MergeAll/Set) must
// preserve through inserts, in-place updates, and annihilations.
func checkIndexConsistency[V any](t testing.TB, m *Map[V]) {
	t.Helper()
	for _, ix := range m.indexes {
		if !ix.built {
			continue
		}
		total := 0
		for key, p := range ix.data {
			if len(p.entries) == 0 {
				t.Fatalf("index %v holds empty bucket %q", ix.proj, key)
			}
			total += len(p.entries)
			for i, pe := range p.entries {
				if got, ok := ix.pos[pe]; !ok || got.i != i || got.p != p {
					t.Fatalf("index %v: entry %v at slot %d has pos %+v (present=%v)", ix.proj, pe.tuple, i, got, ok)
				}
			}
		}
		if total != m.Len() {
			t.Fatalf("index %v holds %d postings, map holds %d entries", ix.proj, total, m.Len())
		}
		if len(ix.pos) != total {
			t.Fatalf("index %v position map holds %d entries, postings hold %d", ix.proj, len(ix.pos), total)
		}
		var kbuf []byte
		for _, e := range m.data {
			kbuf = e.tuple.AppendEncodeProject(kbuf[:0], ix.proj)
			found := 0
			for _, pe := range ix.lookup(kbuf) {
				if pe == e {
					found++
				}
			}
			if found != 1 {
				t.Fatalf("index %v lists entry %v %d times, want 1", ix.proj, e.tuple, found)
			}
		}
	}
}

// probeRing bundles one ring kind with a payload generator for the
// kernel oracle. Generators produce integer-valued payloads so float
// arithmetic stays exact and "bit-identical" is literal.
type probeRing[V any] struct {
	ring ring.Ring[V]
	// gen draws a payload of part j; rings with structured products
	// (ranged COVAR multiplies only adjacent attribute ranges, the
	// relational ring concatenates keys) draw part-specific payloads.
	gen func(rnd *rand.Rand, j int) V
	// lift is the lift of a k-part step; it must compose with the
	// product of one payload of every part.
	lift func(k int) ring.Lift[V]
}

// naiveStep is Step's oracle, sharing no code with it: a nested loop
// over every combination of one tuple per part, kept when the tuples
// agree on every attribute they share, the product of their payloads
// in operand order, the lift, and a Merge per combination into the
// group — pure ring operations only.
func naiveStep[V any](r ring.Ring[V], parts []*Map[V], group value.Schema, liftAttr string, lift ring.Lift[V]) *Map[V] {
	r = pureRing[V]{r}
	out := New[V](group)
	vals := map[string]value.Value{}
	var visit func(j int, p V)
	visit = func(j int, p V) {
		if j == len(parts) {
			if liftAttr != "" {
				p = r.Mul(p, lift(vals[liftAttr]))
			}
			t := make(value.Tuple, group.Len())
			for i, a := range group.Attrs() {
				t[i] = vals[a]
			}
			out.Merge(r, t, p)
			return
		}
		attrs := parts[j].schema.Attrs()
		parts[j].Each(func(tp value.Tuple, pp V) {
			for i, a := range attrs {
				if v, ok := vals[a]; ok && !v.Equal(tp[i]) {
					return
				}
			}
			var fresh []string
			for i, a := range attrs {
				if _, ok := vals[a]; !ok {
					vals[a] = tp[i]
					fresh = append(fresh, a)
				}
			}
			if j > 0 {
				pp = r.Mul(p, pp)
			}
			visit(j+1, pp)
			for _, a := range fresh {
				delete(vals, a)
			}
		})
	}
	visit(0, r.Zero())
	return out
}

// stepShapes are the part schemas the oracle runs Step over, by part
// count: chains, whose later parts share one attribute with the one
// before (so a delta at the end probes the first part on an empty key,
// one bucket), stars sharing A — five parts are past Step's inline
// state — a cartesian product, and a cycle.
var stepShapes = map[int][][]value.Schema{
	1: {{value.NewSchema("A", "B")}},
	2: {
		{value.NewSchema("A", "B"), value.NewSchema("B", "C")},
		{value.NewSchema("A"), value.NewSchema("B")},
	},
	3: {
		{value.NewSchema("A", "B"), value.NewSchema("B", "C"), value.NewSchema("C", "D")},
		{value.NewSchema("A", "B"), value.NewSchema("A", "C"), value.NewSchema("A", "D")},
	},
	4: {
		{value.NewSchema("A", "B"), value.NewSchema("B", "C"), value.NewSchema("C", "D"), value.NewSchema("D", "A")},
		{value.NewSchema("A", "B", "C"), value.NewSchema("A", "D"), value.NewSchema("B", "E"), value.NewSchema("C", "D", "E")},
	},
	5: {{value.NewSchema("A", "B"), value.NewSchema("A", "C"), value.NewSchema("A", "D"), value.NewSchema("A", "E"), value.NewSchema("A", "F")}},
}

// stepParts draws random parts over schemas — each registers the index
// every delta position probes it on, and with prebuild materializes them
// up front so the fills below run through incremental maintenance —
// with a random size per part, so a part is larger or smaller than the
// delta, and single-tuple deltas come up. A share of every part is
// annihilated exactly and refilled, exercising the posting removal.
func stepParts[V any](t testing.TB, rnd *rand.Rand, pr probeRing[V], schemas []value.Schema, prebuild bool) []*Map[V] {
	r := pr.ring
	parts := make([]*Map[V], len(schemas))
	for j, sc := range schemas {
		parts[j] = New[V](sc)
	}
	for d := range schemas {
		plan := PlanStep(schemas, d, value.NewSchema(), "")
		for j, m := range parts {
			if j != d {
				m.AddIndex(plan.IndexKey(j))
			}
		}
	}
	fill := func(j, n int) {
		for i := 0; i < n; i++ {
			tp := make(value.Tuple, schemas[j].Len())
			for a := range tp {
				tp[a] = value.Int(int64(rnd.Intn(3)))
			}
			parts[j].Merge(r, tp, pr.gen(rnd, j))
		}
	}
	for j, m := range parts {
		if prebuild {
			for _, ix := range m.indexes {
				ix.ensure(m)
			}
		}
		fill(j, 1+rnd.Intn(10))
		var doomed []value.Tuple
		var payloads []V
		m.Each(func(tp value.Tuple, p V) {
			if rnd.Intn(3) == 0 {
				doomed = append(doomed, tp)
				payloads = append(payloads, p)
			}
		})
		for i, tp := range doomed {
			m.Merge(r, tp, r.Neg(payloads[i]))
		}
		fill(j, rnd.Intn(3)) // reinsert over annihilated keys
		checkIndexConsistency(t, m)
	}
	return parts
}

// checkStep compares Step over parts with the delta at position d
// against naiveStep, bit for bit, for group keys from none to every
// attribute and the lift on the first or last attribute or absent: as
// given (probing the registered indexes: when no part is empty, a part
// no smaller than the delta must come out with its index built, a
// smaller one with an unbuilt index left unbuilt), over unindexed clones (every part
// indexed for the call), and into a fresh and a recycled buffer. Any
// empty part empties the step.
func checkStep[V any](t testing.TB, pr probeRing[V], parts []*Map[V], d int) {
	t.Helper()
	r := pr.ring
	eq := func(a, b V) bool { return reflect.DeepEqual(a, b) }
	schemas := make([]value.Schema, len(parts))
	unindexed := make([]*Map[V], len(parts))
	all := value.NewSchema()
	for j, m := range parts {
		schemas[j], unindexed[j] = m.schema, m.Clone() // clones carry no index
		all = all.Union(m.schema)
	}
	attrs := all.Attrs()
	groups := []value.Schema{value.NewSchema(), all, value.NewSchema(attrs[0]), value.NewSchema(attrs[len(attrs)-1]), value.NewSchema(attrs[1:]...)}
	for _, group := range groups {
		for _, liftAttr := range []string{"", attrs[0], attrs[len(attrs)-1]} {
			var lift ring.Lift[V]
			if liftAttr != "" {
				lift = pr.lift(len(parts))
			}
			plan := PlanStep(schemas, d, group, liftAttr)
			want := naiveStep(r, parts, group, liftAttr, lift)
			ctx := fmt.Sprintf("%v delta %d group %v lift %q", schemas, d, group, liftAttr)
			wasBuilt := make([]bool, len(parts))
			for j, m := range parts {
				if ix := m.indexOn(plan.IndexKey(j)); ix != nil {
					wasBuilt[j] = ix.built
				}
			}
			buf := New[V](group)
			for _, c := range []struct {
				name  string
				parts []*Map[V]
				out   *Map[V]
			}{
				{"probe", parts, nil},
				{"unindexed", unindexed, nil},
				{"buffer", parts, buf},
				{"recycled buffer", unindexed, buf},
			} {
				if c.out != nil {
					c.out.Reset()
				}
				got := Step(plan, r, c.parts, lift, c.out)
				if !got.schema.Equal(group) || !got.Equal(want, eq) {
					t.Fatalf("%s (%s): Step diverged from the naive oracle\nstep:  %v\nnaive: %v", ctx, c.name, got, want)
				}
				got.Each(func(tp value.Tuple, p V) {
					if r.IsZero(p) {
						t.Fatalf("%s (%s): stored a ring zero at %v", ctx, c.name, tp)
					}
				})
			}
			probed := !slices.ContainsFunc(parts, func(m *Map[V]) bool { return m.Len() == 0 })
			for j, m := range parts {
				checkIndexConsistency(t, m)
				if j == d || !probed || m.indexOn(plan.IndexKey(j)) == nil {
					continue
				}
				built := m.indexOn(plan.IndexKey(j)).built
				if m.Len() >= parts[d].Len() && !built {
					t.Fatalf("%s: part %d (%d tuples, delta %d) was not probed on its index", ctx, j, m.Len(), parts[d].Len())
				}
				if m.Len() < parts[d].Len() && built && !wasBuilt[j] {
					t.Fatalf("%s: part %d, smaller than the delta, had its persistent index built", ctx, j)
				}
			}
			for j := range parts {
				emptied := slices.Clone(parts)
				emptied[j] = New[V](schemas[j])
				if got := Step(plan, r, emptied, lift, nil); got.Len() != 0 || !got.schema.Equal(group) {
					t.Fatalf("%s: step with part %d empty produced %v", ctx, j, got)
				}
			}
		}
	}
}

// stepEquivalence is one input of the kernel oracle: random parts over
// one of the shapes of k parts, with the delta at position d.
func stepEquivalence[V any](t testing.TB, pr probeRing[V], rnd *rand.Rand, k, d int) {
	shapes := stepShapes[k]
	parts := stepParts(t, rnd, pr, shapes[rnd.Intn(len(shapes))], rnd.Intn(2) == 0)
	checkStep(t, pr, parts, d)
}

// runProbeEquivalence drives the kernel oracle over every shape of one
// to five parts, with the delta at every position, on fresh random
// parts per case, then pins cancellation: groups whose products cancel
// to the ring zero are dropped.
func runProbeEquivalence[V any](t *testing.T, pr probeRing[V]) {
	t.Helper()
	r := pr.ring
	rnd := rand.New(rand.NewSource(7))
	for iter := 0; iter < 3; iter++ {
		for k := 1; k <= len(stepShapes); k++ {
			for _, schemas := range stepShapes[k] {
				for d := 0; d < k; d++ {
					checkStep(t, pr, stepParts(t, rnd, pr, schemas, (iter+d)%2 == 0), d)
				}
			}
		}
	}

	// Two delta tuples with opposite payloads meet the same sibling
	// tuples under group C.
	sAB, sBC := value.NewSchema("A", "B"), value.NewSchema("B", "C")
	left, right := New[V](sAB), New[V](sBC)
	p := pr.gen(rnd, 0)
	left.Merge(r, value.T(1, 1), p)
	left.Merge(r, value.T(2, 1), r.Neg(p))
	for c := 0; c < 3; c++ {
		right.Merge(r, value.T(1, c), pr.gen(rnd, 1))
	}
	plan := PlanStep([]value.Schema{sAB, sBC}, 0, value.NewSchema("C"), "")
	right.AddIndex(plan.IndexKey(1))
	if got := Step(plan, r, []*Map[V]{left, right}, nil, nil); got.Len() != 0 {
		t.Fatalf("cancelling groups survived the step: %v", got)
	}
	checkStep(t, pr, []*Map[V]{left, right}, 0)
	checkStep(t, pr, []*Map[V]{left, right}, 1)
}

// probeKind is one ring kind of the kernel oracle, erased to what the
// tests drive: the full sweep and one fuzzed case.
type probeKind struct {
	name  string
	sweep func(t *testing.T)
	one   func(t *testing.T, rnd *rand.Rand, k, d int)
}

func kindOf[V any](name string, pr probeRing[V]) probeKind {
	return probeKind{
		name:  name,
		sweep: func(t *testing.T) { runProbeEquivalence(t, pr) },
		one:   func(t *testing.T, rnd *rand.Rand, k, d int) { stepEquivalence(t, pr, rnd, k, d) },
	}
}

// probeKinds are the ring kinds the kernel oracle runs: the ones the
// engines instantiate — Z counts, float sums, the covar engine's ranged
// COVAR with post-order lifts, and the mixed-feature RelCovar with a
// categorical lift — and the non-commutative relational ring, whose
// part-tagged keys pin the operand order of every product. Ranged
// COVAR runs twice, on leaf payloads of one attribute per part
// ("rangedcovar") and with a first part of two attributes, as interior
// views multiply ("covar"), each also behind a wrapper hiding its
// in-place extensions ("-pure").
func probeKinds() []probeKind {
	rc := ring.NewRelCovarRing(3)
	rcLifts := []ring.Lift[*ring.RelCovar]{rc.LiftContinuous(0), rc.LiftCategorical(1)}
	kinds := []probeKind{
		kindOf("ints", probeRing[int64]{ring: ring.Ints{}, gen: func(rnd *rand.Rand, _ int) int64 {
			return int64(rnd.Intn(9) - 4)
		}, lift: func(int) ring.Lift[int64] { return func(v value.Value) int64 { return v.Int() - 2 } }}),
		kindOf("floats", probeRing[float64]{ring: ring.Floats{}, gen: func(rnd *rand.Rand, _ int) float64 {
			return float64(rnd.Intn(9) - 4)
		}, lift: func(int) ring.Lift[float64] { return func(v value.Value) float64 { return float64(v.Int()) - 2 } }}),
		kindOf("relcovar", probeRing[*ring.RelCovar]{ring: rc, gen: func(rnd *rand.Rand, _ int) *ring.RelCovar {
			p := rcLifts[rnd.Intn(2)](value.Int(int64(rnd.Intn(4))))
			if rnd.Intn(2) == 0 {
				return rc.Neg(p)
			}
			return p
		}, lift: func(int) ring.Lift[*ring.RelCovar] { return rc.LiftCategorical(2) }}),
		kindOf("relational", probeRing[ring.RelVal]{ring: ring.Relational{}, gen: func(rnd *rand.Rand, j int) ring.RelVal {
			return ring.RelSingle(value.T(j, rnd.Intn(2)), float64(rnd.Intn(5)-2))
		}, lift: func(int) ring.Lift[ring.RelVal] {
			return func(v value.Value) ring.RelVal { return ring.RelSingle(value.T("g", v), 1) }
		}}),
	}
	for _, c := range []struct {
		name  string
		width int
	}{{"covar", 2}, {"rangedcovar", 1}} {
		pr := rangedProbeRing(c.width)
		pure := pr
		pure.ring = pureRing[*ring.RangedCovar]{pr.ring}
		kinds = append(kinds, kindOf(c.name, pr), kindOf(c.name+"-pure", pure))
	}
	return kinds
}

// TestQuickProbeEquivalenceAllKinds runs the kernel oracle's sweep over
// every ring kind.
func TestQuickProbeEquivalenceAllKinds(t *testing.T) {
	for _, k := range probeKinds() {
		t.Run(k.name, k.sweep)
	}
}

// FuzzStepEquivalence is the kernel oracle as a fuzz target: for any
// seed, part count k (1 to 5) and delta position, Step over random
// parts of one of the shapes of k parts must equal naiveStep bit for
// bit under every ring kind, with every index consistent.
func FuzzStepEquivalence(f *testing.F) {
	for k := uint8(1); k <= uint8(len(stepShapes)); k++ {
		for d := uint8(0); d < k; d++ {
			f.Add(int64(k)*10+int64(d), k, d)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, k, position uint8) {
		parts := int(k)%len(stepShapes) + 1
		d := int(position) % parts
		for _, kind := range probeKinds() {
			kind.one(t, rand.New(rand.NewSource(seed)), parts, d)
		}
	})
}

// rangedProbeRing is the ranged COVAR kind of the kernel oracle. Ranged
// payloads add only within one attribute range and multiply only
// across adjacent ranges (the view-tree product structure), so part 0
// lifts attributes [0, width), part j > 0 attribute width+j−1, and the
// lift of a k-part step attribute width+k−1: the post-order of a node
// whose parts are its children.
func rangedProbeRing(width int) probeRing[*ring.RangedCovar] {
	var r ring.RangedCovarRing
	lifted := func(rnd *rand.Rand, start, n int) *ring.RangedCovar {
		p := r.One()
		for i := start; i < start+n; i++ {
			p = r.Mul(p, r.Lift(i)(value.Int(int64(rnd.Intn(5)-2))))
		}
		if rnd.Intn(2) == 0 {
			return r.Neg(p)
		}
		return p
	}
	return probeRing[*ring.RangedCovar]{ring: r, gen: func(rnd *rand.Rand, j int) *ring.RangedCovar {
		if j == 0 {
			return lifted(rnd, 0, width)
		}
		return lifted(rnd, width+j-1, 1)
	}, lift: func(k int) ring.Lift[*ring.RangedCovar] { return r.Lift(width + k - 1) }}
}

// TestStepKeepsRelationalKeyOrientation: the relational ring's product
// concatenates keys, so a ⊗ b and b ⊗ a differ. Whichever side Step
// iterates — the delta, at either position, with both sizes tried,
// probing and indexing for the call — the payload is left ⊗ right
// (⊗ lift), and exchanging the operands exchanges the key order.
func TestStepKeepsRelationalKeyOrientation(t *testing.T) {
	r := ring.Relational{}
	sAB, sBC := value.NewSchema("A", "B"), value.NewSchema("B", "C")
	lift := func(v value.Value) ring.RelVal { return ring.RelSingle(value.T("g"), 1) }
	group := value.NewSchema("B")
	for _, sizes := range [][2]int{{1, 3}, {3, 1}, {2, 2}} {
		for _, indexed := range []bool{true, false} {
			left, right := New[ring.RelVal](sAB), New[ring.RelVal](sBC)
			for i := 0; i < sizes[0]; i++ {
				left.Merge(r, value.T(i, 7), ring.RelSingle(value.T("l"), 1))
			}
			for i := 0; i < sizes[1]; i++ {
				right.Merge(r, value.T(7, i), ring.RelSingle(value.T("r"), 1))
			}
			ab, ba := []value.Schema{sAB, sBC}, []value.Schema{sBC, sAB}
			if indexed {
				left.AddIndex(PlanStep(ab, 1, group, "").IndexKey(0))
				right.AddIndex(PlanStep(ab, 0, group, "").IndexKey(1))
			}
			n := float64(sizes[0] * sizes[1])
			for d := 0; d < 2; d++ {
				for _, c := range []struct {
					got  *Map[ring.RelVal]
					want value.Tuple
				}{
					{Step(PlanStep(ab, d, group, ""), r, []*Map[ring.RelVal]{left, right}, nil, nil), value.T("l", "r")},
					{Step(PlanStep(ba, d, group, ""), r, []*Map[ring.RelVal]{right, left}, nil, nil), value.T("r", "l")},
					{Step(PlanStep(ab, d, group, "A"), r, []*Map[ring.RelVal]{left, right}, lift, nil), value.T("l", "r", "g")},
					{Step(PlanStep(ba, d, group, "C"), r, []*Map[ring.RelVal]{right, left}, lift, nil), value.T("r", "l", "g")},
				} {
					got, _ := c.got.Get(value.T(7))
					if want := ring.RelSingle(c.want, n); !reflect.DeepEqual(got, want) {
						t.Fatalf("sizes %v indexed %v delta %d: payload %v, want %v", sizes, indexed, d, got, want)
					}
				}
			}
		}
	}
}

// TestJoinProbeFallsBackWithoutIndex: Join over unindexed operands —
// the right side indexed for the call whether it is the larger or the
// smaller — equals the naive oracle.
func TestJoinProbeFallsBackWithoutIndex(t *testing.T) {
	z := ring.Ints{}
	for _, n := range [][2]int{{20, 5}, {5, 20}} {
		left, right := New[int64](value.NewSchema("A", "B")), New[int64](value.NewSchema("B", "C"))
		for i := 0; i < n[0]; i++ {
			left.Merge(z, value.T(i, i%3), 1)
		}
		for i := 0; i < n[1]; i++ {
			right.Merge(z, value.T(i%3, i), int64(i+1))
		}
		got := Join[int64](z, left, right)
		want := naiveStep[int64](z, []*Map[int64]{left, right}, got.schema, "", nil)
		if left.IndexCount() != 0 || right.IndexCount() != 0 || !got.Equal(want, func(a, b int64) bool { return a == b }) {
			t.Fatalf("sizes %v: fallback diverged:\n%v\nvs\n%v", n, got, want)
		}
	}
}

// TestAddIndexDedup: registering the same projection twice keeps one
// index; a different projection adds a second.
func TestAddIndexDedup(t *testing.T) {
	m := New[int64](value.NewSchema("A", "B"))
	m.AddIndex([]int{1})
	m.AddIndex([]int{1})
	if m.IndexCount() != 1 {
		t.Fatalf("IndexCount = %d after duplicate registration, want 1", m.IndexCount())
	}
	m.AddIndex([]int{0, 1})
	if m.IndexCount() != 2 {
		t.Fatalf("IndexCount = %d, want 2", m.IndexCount())
	}
}

// TestAddIndexBuildsFromContents: an index registered on a populated
// relation materializes from the live contents on first use and is
// consistent from then on.
func TestAddIndexBuildsFromContents(t *testing.T) {
	z := ring.Ints{}
	m := New[int64](value.NewSchema("A", "B"))
	for i := 0; i < 30; i++ {
		m.Merge(z, value.T(i, i%4), 1)
	}
	m.AddIndex([]int{1})
	m.indexOn([]int{1}).ensure(m)
	checkIndexConsistency(t, m)
	// Reset keeps the registration, empties the postings.
	m.Reset()
	if m.IndexCount() != 1 {
		t.Fatal("Reset dropped the index registration")
	}
	checkIndexConsistency(t, m)
	m.Merge(z, value.T(1, 2), 5)
	checkIndexConsistency(t, m)
}

// TestSetMaintainsIndexes: the Set path (snapshot restore) inserts
// postings like Merge does; replacing a payload leaves them untouched.
func TestSetMaintainsIndexes(t *testing.T) {
	m := New[int64](value.NewSchema("A"))
	m.AddIndex([]int{0})
	m.indexOn([]int{0}).ensure(m)
	m.Set(value.T(1), 10)
	m.Set(value.T(1), 20) // in-place replace, no index churn
	m.Set(value.T(2), 30)
	checkIndexConsistency(t, m)
	if got, _ := m.Get(value.T(1)); got != 20 {
		t.Fatalf("payload = %d, want 20", got)
	}
}

// TestAddIndexRejectsBadPositions documents the programming-error panic.
func TestAddIndexRejectsBadPositions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index position")
		}
	}()
	New[int64](value.NewSchema("A")).AddIndex([]int{3})
}

// TestProbeAsymptotics is a coarse guard on the point of the index: the
// work of a single-tuple probe against an indexed relation must not
// scale with the relation's size. It counts probed matches indirectly
// by asserting equal results while sizing the big side up 100x; the
// real latency guard is fivm's TestSingleTupleLatencyFlat.
func TestProbeAsymptotics(t *testing.T) {
	z := ring.Ints{}
	sAB := value.NewSchema("A", "B")
	sBC := value.NewSchema("B", "C")
	plan := PlanStep([]value.Schema{sAB, sBC}, 0, sAB.Union(sBC), "")
	for _, n := range []int{100, 10_000} {
		big := New[int64](sBC)
		big.AddIndex(plan.IndexKey(1))
		for i := 0; i < n; i++ {
			big.Merge(z, value.T(i%50, i), 1)
		}
		delta := New[int64](sAB)
		delta.Merge(z, value.T(7, 13), 1)
		out := Step(plan, z, []*Map[int64]{delta, big}, nil, nil)
		// Key B=13 matches the n/50 tuples with that join key.
		if out.Len() != n/50 {
			t.Fatalf("n=%d: probe produced %d tuples, want %d", n, out.Len(), n/50)
		}
	}
}
