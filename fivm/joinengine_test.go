package fivm_test

import (
	"testing"

	"repro/fivm"
	"repro/internal/value"
	"repro/internal/view"
)

func TestJoinEngineMaintainsJoinResult(t *testing.T) {
	rels := []fivm.RelationSpec{
		{Name: "R", Attrs: []string{"A", "B"}},
		{Name: "S", Attrs: []string{"A", "C", "D"}},
	}
	eng := open[*fivm.JoinEngine](t, fivm.Config{Relations: rels})
	if err := eng.Init(toyData()); err != nil {
		t.Fatal(err)
	}
	if eng.Size() != 3 {
		t.Fatalf("join size = %d, want 3: %v", eng.Size(), eng.Result())
	}
	tuples, mults := eng.Tuples()
	if len(tuples) != 3 {
		t.Fatalf("decoded %d tuples", len(tuples))
	}
	for i, m := range mults {
		if m != 1 {
			t.Errorf("tuple %v has multiplicity %v", tuples[i], m)
		}
		// Every result tuple covers all 5 attributes (A, B, C, D + the
		// per-lift layout includes each variable exactly once).
		if len(tuples[i]) != 4 {
			t.Errorf("tuple %v has arity %d, want 4", tuples[i], len(tuples[i]))
		}
	}

	// Incremental maintenance must match recomputation exactly.
	ups := []view.Update{
		{Rel: "R", Tuple: value.T("a1", 1), Mult: 1}, // duplicates (a1, b1)
		{Rel: "S", Tuple: value.T("a2", 9, 9), Mult: 1},
		{Rel: "S", Tuple: value.T("a1", 2, 3), Mult: -1},
	}
	if err := eng.Apply(ups); err != nil {
		t.Fatal(err)
	}

	fresh := open[*fivm.JoinEngine](t, fivm.Config{Relations: rels})
	data := toyData()
	data["R"] = append(data["R"], value.T("a1", 1))
	data["S"] = append(data["S"], value.T("a2", 9, 9))
	data["S"] = data["S"][:0+len(data["S"])]
	// Remove (a1, 2, 3).
	var s2 []value.Tuple
	for _, tp := range data["S"] {
		if !tp.Equal(value.T("a1", 2, 3)) {
			s2 = append(s2, tp)
		}
	}
	data["S"] = s2
	if err := fresh.Init(data); err != nil {
		t.Fatal(err)
	}
	if !eng.Result().Equal(fresh.Result()) {
		t.Errorf("incremental join %v != recomputed %v", eng.Result(), fresh.Result())
	}
	// (a1, b1) now has multiplicity 2 in R, so its join tuples carry
	// multiplicity 2.
	var saw2 bool
	_, ms := eng.Tuples()
	for _, m := range ms {
		if m == 2 {
			saw2 = true
		}
	}
	if !saw2 {
		t.Errorf("no multiplicity-2 tuple after duplicate insert: %v", eng.Result())
	}
}

func TestJoinEngineDeleteToEmpty(t *testing.T) {
	rels := []fivm.RelationSpec{
		{Name: "R", Attrs: []string{"A"}},
		{Name: "S", Attrs: []string{"A"}},
	}
	eng := open[*fivm.JoinEngine](t, fivm.Config{Relations: rels})
	if err := eng.Init(map[string][]value.Tuple{
		"R": {value.T(1)},
		"S": {value.T(1)},
	}); err != nil {
		t.Fatal(err)
	}
	if eng.Size() != 1 {
		t.Fatalf("size = %d", eng.Size())
	}
	if err := eng.Apply([]view.Update{{Rel: "R", Tuple: value.T(1), Mult: -1}}); err != nil {
		t.Fatal(err)
	}
	if eng.Size() != 0 {
		t.Errorf("join not empty after delete: %v", eng.Result())
	}
}

func TestJoinEngineErrors(t *testing.T) {
	if _, err := fivm.Open(fivm.Config{Kind: fivm.KindJoin}); err == nil {
		t.Error("no relations accepted")
	}
}
