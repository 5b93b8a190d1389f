package view_test

// Tests reproducing Figure 1 of the paper end-to-end: the query
// Q = SUM(gB(B) * gC(C) * gD(D)) over R(A,B) ⋈ S(A,C,D) on the toy
// database
//
//	R = {(a1,b1), (a1,b1'), (a2,b2)}   — drawn as A B # with b1 mult 2
//	S = {(a1,c1,d1), (a1,c2,d3), (a2,c2,d2)}
//
// under four ring scenarios: Z counts, COVAR with continuous B,C,D,
// COVAR with categorical C, and MI with categorical B,C,D — plus the
// δR/δS maintenance shown on the right of the figure.
//
// The figure's relation contents (its key tables) are:
//
//	R(A,B):   (a1,b1)→1, (a2,b2)→1
//	S(A,C,D): (a1,c1,d1)→1, (a1,c2,d3)→1, (a2,c2,d2)→1
//
// so the join R⋈S holds (a1,b1,c1,d1), (a1,b1,c2,d3), (a2,b2,c2,d2),
// with attribute values b_i = c_i = d_i = i (b1=1, c2=2, d3=3, ...).
// Every expected number asserted below appears verbatim in the figure.

import (
	"math"
	"testing"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

// figure1Rels returns the schemas of R(A,B) and S(A,C,D).
func figure1Rels() []vo.Rel {
	return []vo.Rel{
		{Name: "R", Schema: value.NewSchema("A", "B")},
		{Name: "S", Schema: value.NewSchema("A", "C", "D")},
	}
}

// figure1Data returns the toy database of Figure 1.
func figure1Data() map[string][]value.Tuple {
	return map[string][]value.Tuple{
		"R": {
			value.T("a1", 1), // (a1, b1)
			value.T("a2", 2), // (a2, b2)
		},
		"S": {
			value.T("a1", 1, 1), // (a1, c1, d1)
			value.T("a1", 2, 3), // (a1, c2, d3)
			value.T("a2", 2, 2), // (a2, c2, d2)
		},
	}
}

// figure1Order builds the figure's view tree: A at the root with R and S
// anchored below (B under R's side, C/D under S's side).
func figure1Order(t *testing.T) *vo.Order {
	t.Helper()
	ord, err := vo.Build(figure1Rels())
	if err != nil {
		t.Fatalf("vo.Build: %v", err)
	}
	if err := vo.Validate(ord, figure1Rels()); err != nil {
		t.Fatalf("vo.Validate: %v", err)
	}
	return ord
}

// TestFigure1Count checks the count-aggregate scenario: Q = SUM(1) = 3,
// VR = {a1→1, a2→1}, VS = {a1→2, a2→1} (payload column # in the figure,
// where VR aggregates per A and the root multiplies matching payloads).
func TestFigure1Count(t *testing.T) {
	tr, err := view.New(view.Spec[int64]{
		Ring:      ring.Ints{},
		Order:     figure1Order(t),
		Relations: figure1Rels(),
	})
	if err != nil {
		t.Fatalf("view.New: %v", err)
	}
	if err := tr.Init(figure1Data()); err != nil {
		t.Fatalf("Init: %v", err)
	}
	if got := tr.ResultPayload(); got != 3 {
		t.Errorf("count result = %d, want 3 (join has 3 tuples)", got)
	}
}

// TestFigure1CountUpdates replays the figure's right-hand maintenance
// scenario under the Z ring: insert a new R tuple for a1, check δ
// propagation, then delete it and check the result returns.
func TestFigure1CountUpdates(t *testing.T) {
	tr, err := view.New(view.Spec[int64]{
		Ring:      ring.Ints{},
		Order:     figure1Order(t),
		Relations: figure1Rels(),
	})
	if err != nil {
		t.Fatalf("view.New: %v", err)
	}
	if err := tr.Init(figure1Data()); err != nil {
		t.Fatalf("Init: %v", err)
	}

	// δR = {(a1, b1) → +1}: a1 has 2 matching S tuples, so Q grows by 2.
	if err := tr.ApplyUpdates(updates("R", 1, value.T("a1", 1))); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if got := tr.ResultPayload(); got != 5 {
		t.Errorf("after insert: count = %d, want 5", got)
	}

	// Delete it again: back to 3.
	if err := tr.ApplyUpdates(updates("R", -1, value.T("a1", 1))); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if got := tr.ResultPayload(); got != 3 {
		t.Errorf("after delete: count = %d, want 3", got)
	}

	// Delete an S tuple: (a2, c2, d2) removes the only a2 join partner.
	if err := tr.ApplyUpdates(updates("S", -1, value.T("a2", 2, 2))); err != nil {
		t.Fatalf("Delete S: %v", err)
	}
	if got := tr.ResultPayload(); got != 2 {
		t.Errorf("after S delete: count = %d, want 2", got)
	}
}

// covarIdx fixes the aggregate indexing B=0, C=1, D=2 used by all COVAR
// scenarios below: the relational ring lifts at these indexes, and the
// covar engine's ranged ring, which lifts in the tree's post-order,
// widens its result into them.
const (
	idxB = 0
	idxC = 1
	idxD = 2
)

// figure1CovarTree is the figure's tree over the covar engine's ring,
// and the permutation that reads its result in B, C, D order.
func figure1CovarTree(t *testing.T) (*view.Tree[*ring.RangedCovar], []int) {
	t.Helper()
	ord, lifts, perm := view.PostOrderLifts(t, figure1Rels(), "B", "C", "D")
	tr, err := view.New(view.Spec[*ring.RangedCovar]{
		Ring:      ring.RangedCovarRing{},
		Order:     ord,
		Relations: figure1Rels(),
		Lifts:     lifts,
	})
	if err != nil {
		t.Fatalf("view.New: %v", err)
	}
	if err := tr.Init(figure1Data()); err != nil {
		t.Fatalf("Init: %v", err)
	}
	return tr, perm
}

// TestFigure1CovarContinuous checks the COVAR scenario with continuous
// B, C, D (payload column "COVAR (cont. B,C,D)"): with b_i = c_i = d_i
// = i the join is {(1,1,1), (1,2,3), (2,2,2)} over (B,C,D), so
//
//	count = 3
//	SUM(B) = 4,  SUM(C) = 5,  SUM(D) = 6
//	SUM(B*B) = 6, SUM(B*C) = 7, SUM(B*D) = 8
//	SUM(C*C) = 9, SUM(C*D) = 11, SUM(D*D) = 14
//
// matching the numbers printed inside the figure's root payload
// (6 7 8 / 9 11 / 14 with the vector 4 5 6 and count 3).
func TestFigure1CovarContinuous(t *testing.T) {
	tr, perm := figure1CovarTree(t)
	got := tr.ResultPayload().Widen(perm)
	if got == nil {
		t.Fatal("nil COVAR result")
	}
	checkF := func(name string, g, w float64) {
		t.Helper()
		if math.Abs(g-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
	checkF("count", got.Count(), 3)
	checkF("SUM(B)", got.Sum(idxB), 4)
	checkF("SUM(C)", got.Sum(idxC), 5)
	checkF("SUM(D)", got.Sum(idxD), 6)
	checkF("SUM(B*B)", got.Prod(idxB, idxB), 6)
	checkF("SUM(B*C)", got.Prod(idxB, idxC), 7)
	checkF("SUM(B*D)", got.Prod(idxB, idxD), 8)
	checkF("SUM(C*C)", got.Prod(idxC, idxC), 9)
	checkF("SUM(C*D)", got.Prod(idxC, idxD), 11)
	checkF("SUM(D*D)", got.Prod(idxD, idxD), 14)
}

// TestFigure1CovarContinuousUpdates replays the figure's δR maintenance
// under the covar engine's ring: δR = {(a1,b1)}, whose δQ contribution
// is the product gB(b1) ⊗ VS(a1).
func TestFigure1CovarContinuousUpdates(t *testing.T) {
	tr, perm := figure1CovarTree(t)
	before := tr.ResultPayload().Widen(perm)

	// Insert (a1, b1): the join gains (B,C,D) tuples (1,1,1) and (1,2,3).
	if err := tr.ApplyUpdates(updates("R", 1, value.T("a1", 1))); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got := tr.ResultPayload().Widen(perm)
	if w := before.Count() + 2; got.Count() != w {
		t.Errorf("count after insert = %v, want %v", got.Count(), w)
	}
	if w := before.Sum(idxB) + 2; got.Sum(idxB) != w { // +1 +1
		t.Errorf("SUM(B) after insert = %v, want %v", got.Sum(idxB), w)
	}
	if w := before.Prod(idxB, idxD) + 1*1 + 1*3; got.Prod(idxB, idxD) != w {
		t.Errorf("SUM(B*D) after insert = %v, want %v", got.Prod(idxB, idxD), w)
	}

	// Delete it: payload returns exactly (ring values are integral here).
	if err := tr.ApplyUpdates(updates("R", -1, value.T("a1", 1))); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if got := tr.ResultPayload().Widen(perm); !got.Equal(before) {
		t.Errorf("after delete: result %v, want %v", got, before)
	}
}

// TestFigure1CovarCategorical checks the mixed scenario (payload column
// "COVAR (cat. C, cont. B, D)"): C is categorical, so s_C = SUM(1)
// GROUP BY C = {c1→1, c2→2} and Q_BC = SUM(B) GROUP BY C = {c1→1, c2→3},
// while continuous entries match the all-continuous scenario.
func TestFigure1CovarCategorical(t *testing.T) {
	r := ring.NewRelCovarRing(3)
	tr, err := view.New(view.Spec[*ring.RelCovar]{
		Ring:      r,
		Order:     figure1Order(t),
		Relations: figure1Rels(),
		Lifts: map[string]ring.Lift[*ring.RelCovar]{
			"B": r.LiftContinuous(idxB),
			"C": r.LiftCategorical(idxC),
			"D": r.LiftContinuous(idxD),
		},
	})
	if err != nil {
		t.Fatalf("view.New: %v", err)
	}
	if err := tr.Init(figure1Data()); err != nil {
		t.Fatalf("Init: %v", err)
	}
	got := tr.ResultPayload()
	if got == nil {
		t.Fatal("nil RelCovar result")
	}

	// Count: {() → 3}.
	if c := got.Count().Scalar(); c != 3 {
		t.Errorf("count = %v, want 3", c)
	}
	// Continuous sums: 0-dimensional relations.
	if s := got.Sum(idxB).Scalar(); s != 4 {
		t.Errorf("SUM(B) = %v, want 4", s)
	}
	if s := got.Sum(idxD).Scalar(); s != 6 {
		t.Errorf("SUM(D) = %v, want 6", s)
	}
	// Categorical C: s_C = {c1→1, c2→2} — figure payload "C # c1 1, c2 2".
	sc := got.Sum(idxC)
	if g := sc.Get(value.T(1)); g != 1 {
		t.Errorf("s_C(c1) = %v, want 1", g)
	}
	if g := sc.Get(value.T(2)); g != 2 {
		t.Errorf("s_C(c2) = %v, want 2", g)
	}
	if sc.Len() != 2 {
		t.Errorf("s_C has %d groups, want 2: %v", sc.Len(), sc)
	}
	// Q_BC = SUM(B) GROUP BY C = {c1→1, c2→1+2=3} — figure "c1 1, c2 3".
	qbc := got.Prod(idxB, idxC)
	if g := qbc.Get(value.T(1)); g != 1 {
		t.Errorf("Q_BC(c1) = %v, want 1", g)
	}
	if g := qbc.Get(value.T(2)); g != 3 {
		t.Errorf("Q_BC(c2) = %v, want 3", g)
	}
	// Q_CC = SUM(1) GROUP BY C (diagonal one-hot): {c1→1, c2→2}.
	qcc := got.Prod(idxC, idxC)
	if g := qcc.Get(value.T(1)); g != 1 {
		t.Errorf("Q_CC(c1) = %v, want 1", g)
	}
	if g := qcc.Get(value.T(2)); g != 2 {
		t.Errorf("Q_CC(c2) = %v, want 2", g)
	}
	// Q_CD = SUM(D) GROUP BY C = {c1→1, c2→3+2=5} — figure "c1 1, c2 5".
	qcd := got.Prod(idxC, idxD)
	if g := qcd.Get(value.T(1)); g != 1 {
		t.Errorf("Q_CD(c1) = %v, want 1", g)
	}
	if g := qcd.Get(value.T(2)); g != 5 {
		t.Errorf("Q_CD(c2) = %v, want 5", g)
	}
	// Continuous-continuous entries: Q_BD = SUM(B*D) = 8, Q_BB = 6,
	// Q_DD = 14.
	if g := got.Prod(idxB, idxD).Scalar(); g != 8 {
		t.Errorf("Q_BD = %v, want 8", g)
	}
	if g := got.Prod(idxB, idxB).Scalar(); g != 6 {
		t.Errorf("Q_BB = %v, want 6", g)
	}
	if g := got.Prod(idxD, idxD).Scalar(); g != 14 {
		t.Errorf("Q_DD = %v, want 14", g)
	}
}

// TestFigure1MI checks the MI scenario (payload column "MI (cat.
// B,C,D)"): all three attributes categorical, so the payload carries the
// count C∅ = 3, the marginal count vectors, and the pairwise count
// matrices:
//
//	C_B = {b1→2, b2→1}, C_C = {c1→1, c2→2}, C_D = {d1→1, d2→1, d3→1}
//	C_BC = {(b1,c1)→1, (b1,c2)→1, (b2,c2)→1}
//	C_BD = {(b1,d1)→1, (b1,d3)→1, (b2,d2)→1}
//	C_CD = {(c1,d1)→1, (c2,d3)→1, (c2,d2)→1}
//
// exactly the tables printed in the figure's MI column.
func TestFigure1MI(t *testing.T) {
	r := ring.NewRelCovarRing(3)
	tr, err := view.New(view.Spec[*ring.RelCovar]{
		Ring:      r,
		Order:     figure1Order(t),
		Relations: figure1Rels(),
		Lifts: map[string]ring.Lift[*ring.RelCovar]{
			"B": r.LiftCategorical(idxB),
			"C": r.LiftCategorical(idxC),
			"D": r.LiftCategorical(idxD),
		},
	})
	if err != nil {
		t.Fatalf("view.New: %v", err)
	}
	if err := tr.Init(figure1Data()); err != nil {
		t.Fatalf("Init: %v", err)
	}
	got := tr.ResultPayload()

	if c := got.Count().Scalar(); c != 3 {
		t.Errorf("C∅ = %v, want 3", c)
	}
	wantRel := func(name string, got ring.RelVal, want map[string]float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s = %v, want %d groups", name, got, len(want))
			return
		}
		for k, w := range want {
			if g := got[k]; g != w {
				t.Errorf("%s[%v] = %v, want %v", name, value.MustDecodeTuple(k), g, w)
			}
		}
	}
	k1 := value.T(1).Encode()
	k2 := value.T(2).Encode()
	k3 := value.T(3).Encode()
	wantRel("C_B", got.Sum(idxB), map[string]float64{k1: 2, k2: 1})
	wantRel("C_C", got.Sum(idxC), map[string]float64{k1: 1, k2: 2})
	wantRel("C_D", got.Sum(idxD), map[string]float64{k1: 1, k2: 1, k3: 1})
	wantRel("C_BC", got.Prod(idxB, idxC), map[string]float64{
		value.T(1, 1).Encode(): 1,
		value.T(1, 2).Encode(): 1,
		value.T(2, 2).Encode(): 1,
	})
	wantRel("C_BD", got.Prod(idxB, idxD), map[string]float64{
		value.T(1, 1).Encode(): 1,
		value.T(1, 3).Encode(): 1,
		value.T(2, 2).Encode(): 1,
	})
	wantRel("C_CD", got.Prod(idxC, idxD), map[string]float64{
		value.T(1, 1).Encode(): 1,
		value.T(2, 3).Encode(): 1,
		value.T(2, 2).Encode(): 1,
	})
}

// TestFigure1MIUpdates checks delete maintenance under the generalized
// ring: deleting (a1,c2,d3) from S must remove exactly the join tuple
// (b1,c2,d3) from every count table.
func TestFigure1MIUpdates(t *testing.T) {
	r := ring.NewRelCovarRing(3)
	tr, err := view.New(view.Spec[*ring.RelCovar]{
		Ring:      r,
		Order:     figure1Order(t),
		Relations: figure1Rels(),
		Lifts: map[string]ring.Lift[*ring.RelCovar]{
			"B": r.LiftCategorical(idxB),
			"C": r.LiftCategorical(idxC),
			"D": r.LiftCategorical(idxD),
		},
	})
	if err != nil {
		t.Fatalf("view.New: %v", err)
	}
	if err := tr.Init(figure1Data()); err != nil {
		t.Fatalf("Init: %v", err)
	}
	if err := tr.ApplyUpdates(updates("S", -1, value.T("a1", 2, 3))); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	got := tr.ResultPayload()
	if c := got.Count().Scalar(); c != 2 {
		t.Errorf("C∅ after delete = %v, want 2", c)
	}
	if g := got.Sum(idxB).Get(value.T(1)); g != 1 {
		t.Errorf("C_B(b1) after delete = %v, want 1", g)
	}
	if g := got.Prod(idxC, idxD).Get(value.T(2, 3)); g != 0 {
		t.Errorf("C_CD(c2,d3) after delete = %v, want gone", g)
	}
	// Re-insert restores the initial state exactly.
	if err := tr.ApplyUpdates(updates("S", 1, value.T("a1", 2, 3))); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if c := tr.ResultPayload().Count().Scalar(); c != 3 {
		t.Errorf("C∅ after re-insert = %v, want 3", c)
	}
}

// TestFigure1ViewContents verifies the intermediate views VR and VS in
// the count scenario: VR = SUM(gB(B)) GROUP BY A over R and
// VS = SUM(gC(C)*gD(D)) GROUP BY A over S.
func TestFigure1ViewContents(t *testing.T) {
	tr, err := view.New(view.Spec[int64]{
		Ring:      ring.Ints{},
		Order:     figure1Order(t),
		Relations: figure1Rels(),
	})
	if err != nil {
		t.Fatalf("view.New: %v", err)
	}
	if err := tr.Init(figure1Data()); err != nil {
		t.Fatalf("Init: %v", err)
	}

	// Find the views keyed by [A]: those are VR and VS (children of the
	// root A node).
	root := tr.Roots()[0]
	if root.Var() != "A" {
		t.Fatalf("root variable = %s, want A (the only join variable)", root.Var())
	}
	var perA []*relation.Map[int64]
	for _, c := range root.Children() {
		perA = append(perA, c.View())
	}
	// Relations anchored directly at A's node contribute without an
	// intermediate view; the greedy order puts B, C, D below A, so R and
	// S each sit under one child.
	if len(perA) != 2 {
		t.Fatalf("root has %d children, want 2 (VR and VS)", len(perA))
	}
	counts := map[string][2]int64{}
	for _, v := range perA {
		v.Each(func(tp value.Tuple, p int64) {
			c := counts[tp[0].Str()]
			if c[0] == 0 {
				c[0] = p
			} else {
				c[1] = p
			}
			counts[tp[0].Str()] = c
		})
	}
	// VR(a1)=1, VS(a1)=2 (in some order); VR(a2)=1, VS(a2)=1.
	a1 := counts["a1"]
	if !(a1 == [2]int64{1, 2} || a1 == [2]int64{2, 1}) {
		t.Errorf("payloads at a1 = %v, want {1,2}", a1)
	}
	a2 := counts["a2"]
	if a2 != [2]int64{1, 1} {
		t.Errorf("payloads at a2 = %v, want {1,1}", a2)
	}
}
