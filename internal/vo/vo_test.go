package vo

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/value"
)

func rel(name string, attrs ...string) Rel {
	return Rel{Name: name, Schema: value.NewSchema(attrs...)}
}

func TestBuildToyQuery(t *testing.T) {
	rels := []Rel{rel("R", "A", "B"), rel("S", "A", "C", "D")}
	ord, err := Build(rels)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(ord, rels); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(ord.Roots) != 1 {
		t.Fatalf("roots = %d", len(ord.Roots))
	}
	if ord.Roots[0].Var != "A" {
		t.Errorf("root = %s, want A (max occurrence)", ord.Roots[0].Var)
	}
	// R anchors at B, S at D (the deepest variable each completes).
	want := "A (keys [])\n  B (keys [A]) {R}\n  C (keys [A])\n    D (keys [A, C]) {S}\n"
	if got := ord.String(); got != want {
		t.Errorf("order =\n%s\nwant\n%s", got, want)
	}
}

func TestBuildSingleRelation(t *testing.T) {
	rels := []Rel{rel("R", "A", "B", "C")}
	ord, err := Build(rels)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(ord, rels); err != nil {
		t.Fatal(err)
	}
	// A path of three nodes; R anchored at the deepest.
	n := ord.Roots[0]
	depth := 1
	for len(n.Children) > 0 {
		if len(n.Children) != 1 {
			t.Fatalf("single relation must give a path, found %d children", len(n.Children))
		}
		n = n.Children[0]
		depth++
	}
	if depth != 3 {
		t.Errorf("path depth = %d, want 3", depth)
	}
	if len(n.Rels) != 1 || n.Rels[0].Name != "R" {
		t.Errorf("R not at the path's end")
	}
}

func TestBuildDisconnected(t *testing.T) {
	rels := []Rel{rel("R", "A"), rel("S", "B")}
	ord, err := Build(rels)
	if err != nil {
		t.Fatal(err)
	}
	if len(ord.Roots) != 2 {
		t.Fatalf("disconnected query: roots = %d, want 2", len(ord.Roots))
	}
	if err := Validate(ord, rels); err != nil {
		t.Fatal(err)
	}
}

func TestBuildEmptySchemaFails(t *testing.T) {
	if _, err := Build([]Rel{rel("R")}); err == nil {
		t.Error("empty-schema relation accepted")
	}
}

func TestDependencySets(t *testing.T) {
	// Path query R(A,B), S(B,C), T(C,D): keys must be the classic
	// "connecting" attributes.
	rels := []Rel{rel("R", "A", "B"), rel("S", "B", "C"), rel("T", "C", "D")}
	ord, err := Build(rels)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(ord, rels); err != nil {
		t.Fatal(err)
	}
	// Find each node and check keys ⊆ ancestors and relations covered.
	var check func(n *Node, anc []string)
	check = func(n *Node, anc []string) {
		as := value.NewSchema(anc...)
		if !n.Keys.IsSubsetOf(as) {
			t.Errorf("node %s keys %v not within ancestors %v", n.Var, n.Keys, anc)
		}
		for _, c := range n.Children {
			check(c, append(anc, n.Var))
		}
	}
	for _, r := range ord.Roots {
		check(r, nil)
	}
}

func TestRetailerOrderShape(t *testing.T) {
	rels := []Rel{
		rel("Inventory", "locn", "dateid", "ksn", "inventoryunits"),
		rel("Location", "locn", "zip", "area"),
		rel("Census", "zip", "population"),
		rel("Item", "ksn", "category"),
		rel("Weather", "locn", "dateid", "rain"),
	}
	ord, err := Build(rels)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(ord, rels); err != nil {
		t.Fatal(err)
	}
	// locn occurs in 3 relations: must be the root, matching Figure 2d
	// (V@locn at the top).
	if ord.Roots[0].Var != "locn" {
		t.Errorf("root = %s, want locn", ord.Roots[0].Var)
	}
	drawn := ord.String()
	for _, r := range rels {
		if !strings.Contains(drawn, r.Name) {
			t.Errorf("drawing misses %s:\n%s", r.Name, drawn)
		}
	}
}

func TestValidateRejectsBadOrders(t *testing.T) {
	rels := []Rel{rel("R", "A", "B")}
	// Relation anchored where its schema is not covered.
	bad := &Order{Roots: []*Node{{
		Var:  "A",
		Rels: []Rel{rel("R", "A", "B")},
		Keys: value.NewSchema(),
	}}}
	if err := Validate(bad, rels); err == nil {
		t.Error("uncovered anchor accepted")
	}
	// Unknown relation anchored.
	bad2 := &Order{Roots: []*Node{{
		Var:  "A",
		Rels: []Rel{rel("X", "A")},
		Keys: value.NewSchema(),
	}}}
	if err := Validate(bad2, rels); err == nil {
		t.Error("unknown relation accepted")
	}
	// Relation never anchored.
	bad3 := &Order{Roots: []*Node{{Var: "A", Keys: value.NewSchema()}}}
	if err := Validate(bad3, rels); err == nil {
		t.Error("missing anchor accepted")
	}
	// Duplicate variable.
	bad4 := &Order{Roots: []*Node{{
		Var:  "A",
		Keys: value.NewSchema(),
		Children: []*Node{{
			Var:  "A",
			Keys: value.NewSchema(),
			Rels: []Rel{rel("R", "A", "B")},
		}},
	}}}
	if err := Validate(bad4, rels); err == nil {
		t.Error("duplicate variable accepted")
	}
	// Schema drift between order and query.
	drift := &Order{Roots: []*Node{{
		Var:  "A",
		Keys: value.NewSchema(),
		Children: []*Node{{
			Var:  "B",
			Keys: value.NewSchema("A"),
			Rels: []Rel{rel("R", "A", "B", "C")},
		}},
	}}}
	if err := Validate(drift, rels); err == nil {
		t.Error("schema drift accepted")
	}
}

// TestBuildAlwaysValid is the key property test: for random acyclic-ish
// hypergraphs the greedy construction must always produce a valid
// variable order covering every relation.
func TestBuildAlwaysValid(t *testing.T) {
	attrs := []string{"A", "B", "C", "D", "E", "F", "G"}
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		nRels := 1 + rng.Intn(5)
		var rels []Rel
		for i := 0; i < nRels; i++ {
			k := 1 + rng.Intn(3)
			perm := rng.Perm(len(attrs))[:k]
			names := make([]string, k)
			for j, p := range perm {
				names[j] = attrs[p]
			}
			rels = append(rels, Rel{Name: "R" + string(rune('0'+i)), Schema: value.NewSchema(names...)})
		}
		ord, err := Build(rels)
		if err != nil {
			t.Fatalf("iter %d: Build(%v): %v", iter, rels, err)
		}
		if err := Validate(ord, rels); err != nil {
			t.Fatalf("iter %d: invalid order for %v:\n%s\n%v", iter, rels, ord, err)
		}
	}
}

func TestNodeHelpers(t *testing.T) {
	rels := []Rel{rel("R", "A", "B"), rel("S", "A", "C")}
	ord, err := Build(rels)
	if err != nil {
		t.Fatal(err)
	}
	root := ord.Roots[0]
	vars := root.Vars()
	if len(vars) != 3 {
		t.Errorf("Vars = %v", vars)
	}
	got := root.Relations()
	if len(got) != 2 {
		t.Errorf("Relations = %v", got)
	}
	if s := root.String(); !strings.Contains(s, "A (keys [])") {
		t.Errorf("String = %q", s)
	}
}
