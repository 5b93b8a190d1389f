package vo

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// Rel describes one input relation of the join: its name and schema.
type Rel struct {
	Name   string
	Schema value.Schema
}

// Node is one node of a variable order: it owns a variable, the
// relations anchored at it (those whose entire schema is covered by the
// root-to-here path), and child subtrees over the remaining variables.
type Node struct {
	// Var is the variable this node marginalizes.
	Var string
	// Children are the subtrees below this node.
	Children []*Node
	// Rels are the relations anchored at this node.
	Rels []Rel
	// Keys is the dependency set: the ancestor variables that co-occur
	// with variables of this subtree in some relation. The view at this
	// node is grouped by Keys.
	Keys value.Schema
}

// Vars returns all variables of the subtree rooted at n in preorder.
func (n *Node) Vars() []string {
	var out []string
	n.walk(func(m *Node) { out = append(out, m.Var) })
	return out
}

// Relations returns all relations anchored in the subtree.
func (n *Node) Relations() []Rel {
	var out []Rel
	n.walk(func(m *Node) { out = append(out, m.Rels...) })
	return out
}

func (n *Node) walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.walk(fn)
	}
}

// String renders the variable order as an indented tree with anchored
// relations and dependency sets, e.g. "A (keys []) {R, S}".
func (n *Node) String() string {
	var b strings.Builder
	n.format(&b, 0)
	return b.String()
}

func (n *Node) format(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s (keys %v)", n.Var, n.Keys)
	if len(n.Rels) > 0 {
		names := make([]string, len(n.Rels))
		for i, r := range n.Rels {
			names[i] = r.Name
		}
		fmt.Fprintf(b, " {%s}", strings.Join(names, ", "))
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.format(b, depth+1)
	}
}

// Order is a forest of variable-order trees; disconnected queries yield
// multiple roots (their views combine by Cartesian product at the top).
type Order struct {
	Roots []*Node
}

// String renders every root tree.
func (o *Order) String() string {
	var b strings.Builder
	for _, r := range o.Roots {
		b.WriteString(r.String())
	}
	return b.String()
}

// Build constructs a variable order for the natural join of rels using a
// greedy heuristic: at each step it picks the variable occurring in the
// most remaining relations (ties broken lexicographically), anchors the
// relations it completes, and recurses into the connected components of
// the rest. This mirrors the d-tree construction of the F-IVM prototype.
//
// Build returns an error when a relation has an empty schema (such a
// relation cannot be anchored) — scalar relations should be handled by
// the caller.
func Build(rels []Rel) (*Order, error) {
	for _, r := range rels {
		if r.Schema.Len() == 0 {
			return nil, fmt.Errorf("vo: relation %s has an empty schema", r.Name)
		}
	}
	roots, err := build(rels, nil)
	if err != nil {
		return nil, err
	}
	return &Order{Roots: roots}, nil
}

// build recursively constructs the forest over rels given the path of
// ancestor variables already chosen.
func build(rels []Rel, ancestors []string) ([]*Node, error) {
	if len(rels) == 0 {
		return nil, nil
	}
	anc := value.NewSchema(ancestors...)

	// Partition into connected components on the not-yet-eliminated
	// variables so sibling subtrees stay independent.
	comps := components(rels, anc)
	var roots []*Node
	for _, comp := range comps {
		n, err := buildComponent(comp, ancestors, anc)
		if err != nil {
			return nil, err
		}
		roots = append(roots, n)
	}
	return roots, nil
}

func buildComponent(rels []Rel, ancestors []string, anc value.Schema) (*Node, error) {
	// Count occurrences of remaining variables.
	count := map[string]int{}
	for _, r := range rels {
		for _, a := range r.Schema.Attrs() {
			if !anc.Has(a) {
				count[a]++
			}
		}
	}
	if len(count) == 0 {
		return nil, fmt.Errorf("vo: relations %v fully covered by ancestors %v; duplicate schema?", relNames(rels), ancestors)
	}
	// Pick max-occurrence variable; ties lexicographic for determinism.
	vars := make([]string, 0, len(count))
	for v := range count {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	best := vars[0]
	for _, v := range vars[1:] {
		if count[v] > count[best] {
			best = v
		}
	}

	node := &Node{Var: best}
	path := append(append([]string{}, ancestors...), best)
	pathSchema := value.NewSchema(path...)

	var rest []Rel
	for _, r := range rels {
		if r.Schema.IsSubsetOf(pathSchema) {
			node.Rels = append(node.Rels, r)
		} else {
			rest = append(rest, r)
		}
	}
	sort.Slice(node.Rels, func(i, j int) bool { return node.Rels[i].Name < node.Rels[j].Name })

	children, err := build(rest, path)
	if err != nil {
		return nil, err
	}
	node.Children = children
	node.computeKeys(anc)
	return node, nil
}

// computeKeys sets the dependency set of n: ancestors that appear in
// some relation of n's subtree.
func (n *Node) computeKeys(ancestors value.Schema) {
	used := map[string]bool{}
	for _, r := range n.Relations() {
		for _, a := range r.Schema.Attrs() {
			if ancestors.Has(a) {
				used[a] = true
			}
		}
	}
	var keys []string
	for _, a := range ancestors.Attrs() { // keep ancestor order
		if used[a] {
			keys = append(keys, a)
		}
	}
	n.Keys = value.NewSchema(keys...)
	// Recompute children keys against the extended ancestor path.
	ext := ancestors.Union(value.NewSchema(n.Var))
	for _, c := range n.Children {
		c.computeKeys(ext)
	}
}

// components groups relations into connected components linked by shared
// variables not yet eliminated (i.e. not in anc).
func components(rels []Rel, anc value.Schema) [][]Rel {
	n := len(rels)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	byVar := map[string]int{}
	for i, r := range rels {
		for _, a := range r.Schema.Attrs() {
			if anc.Has(a) {
				continue
			}
			if j, ok := byVar[a]; ok {
				union(i, j)
			} else {
				byVar[a] = i
			}
		}
	}
	groups := map[int][]Rel{}
	var order []int
	for i, r := range rels {
		root := find(i)
		if _, seen := groups[root]; !seen {
			order = append(order, root)
		}
		groups[root] = append(groups[root], r)
	}
	out := make([][]Rel, 0, len(order))
	for _, root := range order {
		out = append(out, groups[root])
	}
	return out
}

func relNames(rels []Rel) []string {
	out := make([]string, len(rels))
	for i, r := range rels {
		out[i] = r.Name
	}
	return out
}

// Validate checks that ord is a valid variable order for rels: every
// variable appears exactly once, every relation is anchored exactly
// once at a node whose root-to-node path covers its schema, and
// dependency sets are consistent.
func Validate(ord *Order, rels []Rel) error {
	want := make(map[string]value.Schema, len(rels))
	for _, r := range rels {
		want[r.Name] = r.Schema
	}
	seenVar := map[string]bool{}
	seenRel := map[string]bool{}
	var check func(n *Node, path []string) error
	check = func(n *Node, path []string) error {
		if seenVar[n.Var] {
			return fmt.Errorf("vo: variable %s appears twice", n.Var)
		}
		seenVar[n.Var] = true
		path = append(path, n.Var)
		ps := value.NewSchema(path...)
		for _, r := range n.Rels {
			ws, known := want[r.Name]
			if !known {
				return fmt.Errorf("vo: order anchors unknown relation %s", r.Name)
			}
			if !ws.Equal(r.Schema) {
				return fmt.Errorf("vo: relation %s schema mismatch: order has %v, query has %v", r.Name, r.Schema, ws)
			}
			if seenRel[r.Name] {
				return fmt.Errorf("vo: relation %s anchored twice", r.Name)
			}
			seenRel[r.Name] = true
			if !r.Schema.IsSubsetOf(ps) {
				return fmt.Errorf("vo: relation %s (schema %v) not covered by path %v", r.Name, r.Schema, path)
			}
		}
		if !n.Keys.IsSubsetOf(value.NewSchema(path[:len(path)-1]...)) {
			return fmt.Errorf("vo: node %s keys %v not a subset of its ancestors %v", n.Var, n.Keys, path[:len(path)-1])
		}
		for _, c := range n.Children {
			if err := check(c, path); err != nil {
				return err
			}
		}
		return nil
	}
	for _, root := range ord.Roots {
		if err := check(root, nil); err != nil {
			return err
		}
	}
	for _, r := range rels {
		if !seenRel[r.Name] {
			return fmt.Errorf("vo: relation %s not anchored anywhere", r.Name)
		}
		for _, a := range r.Schema.Attrs() {
			if !seenVar[a] {
				return fmt.Errorf("vo: variable %s of relation %s missing from order", a, r.Name)
			}
		}
	}
	return nil
}
