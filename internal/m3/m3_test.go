package m3_test

import (
	"strings"
	"testing"

	"repro/internal/m3"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/view"
	"repro/internal/vo"
)

// toyTree is Figure 1's tree over the covar engine's ring. Its greedy
// order puts B and C under A and D under C, so the post-order lift
// indexes, under which every product meets adjacent ranges, are B 0,
// D 1, C 2.
func toyTree(t *testing.T) *view.Tree[*ring.RangedCovar] {
	t.Helper()
	rels := []vo.Rel{
		{Name: "R", Schema: value.NewSchema("A", "B")},
		{Name: "S", Schema: value.NewSchema("A", "C", "D")},
	}
	var r ring.RangedCovarRing
	tr, err := view.New(view.Spec[*ring.RangedCovar]{
		Ring: r, Relations: rels,
		Lifts: map[string]ring.Lift[*ring.RangedCovar]{
			"B": r.Lift(0), "D": r.Lift(1), "C": r.Lift(2),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRenderDeclarations(t *testing.T) {
	tr := toyTree(t)
	info := m3.RingInfo{
		Name: "RingCofactor<double, 3>",
		LiftIndexOf: func(v string) int {
			switch v {
			case "B":
				return 0
			case "D":
				return 1
			case "C":
				return 2
			}
			return -1
		},
	}
	p := m3.Render(tr, info)
	if len(p.Declarations) != 4 { // A, B, C, D
		t.Fatalf("%d declarations, want 4:\n%v", len(p.Declarations), p.Declarations)
	}
	all := p.String()
	for _, frag := range []string{
		"DECLARE MAP V_A(RingCofactor<double, 3>)",
		"DECLARE MAP V_B(RingCofactor<double, 3>)[][A: long]",
		"AggSum([A],",
		"[lift<0>: RingCofactor<double, 3>](B)",
		"R(long)[][...]<Local>",
		"S(long)[][...]<Local>",
	} {
		if !strings.Contains(all, frag) {
			t.Errorf("rendered program missing %q:\n%s", frag, all)
		}
	}
	// The root view joins its children views.
	rootDecl := p.Declarations[0]
	if !strings.Contains(rootDecl, "V_B(") || !strings.Contains(rootDecl, "V_C(") {
		t.Errorf("root declaration misses children:\n%s", rootDecl)
	}
	// The join variable A has no lift.
	if strings.Contains(rootDecl, "[lift") {
		t.Errorf("join variable got a lift:\n%s", rootDecl)
	}
}

func TestRenderTreeDrawing(t *testing.T) {
	tr := toyTree(t)
	p := m3.Render(tr, m3.RingInfo{Name: "Ring"})
	for _, frag := range []string{"V@A[]", "V@B[A]", "R[...]", "S[...]"} {
		if !strings.Contains(p.TreeDrawing, frag) {
			t.Errorf("drawing missing %q:\n%s", frag, p.TreeDrawing)
		}
	}
	// Indentation: children are deeper than the root.
	lines := strings.Split(strings.TrimRight(p.TreeDrawing, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "V@A") {
		t.Errorf("first line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  ") {
		t.Errorf("child not indented: %q", lines[1])
	}
}

func TestRenderWithoutLiftIndex(t *testing.T) {
	tr := toyTree(t)
	p := m3.Render(tr, m3.RingInfo{Name: "Ring"}) // no LiftIndexOf
	if !strings.Contains(p.String(), "[lift: Ring](B)") {
		t.Errorf("generic lift marker missing:\n%s", p.String())
	}
}
