package ml

import (
	"fmt"
	"sort"
	"strings"
)

// ChowLiuEdge is one edge of a Chow-Liu tree, oriented parent → child
// once the tree is rooted.
type ChowLiuEdge struct {
	Parent string
	Child  string
	MI     float64
}

// ChowLiuTree is the optimal tree-shaped Bayesian network over the MI
// matrix's attributes: the maximum spanning tree under pairwise mutual
// information (Chow & Liu 1968), rooted at a chosen attribute.
type ChowLiuTree struct {
	Root  string
	Edges []ChowLiuEdge
	// TotalMI is the sum of edge MI values — the objective the tree
	// maximizes.
	TotalMI float64
}

// ChowLiu builds the Chow-Liu tree from an MI matrix via Prim's
// algorithm, rooting it at root (which must be an attribute of the
// matrix). Edges come out in insertion (Prim) order. Equal MI values
// break by name — the next child is the name-smallest among the best,
// its parent the name-smallest tree node achieving that MI — so with
// MIFromRelCovar's sums, each run in Σ's fixed column order, the tree is
// a function of the data.
func ChowLiu(m *MIMatrix, root string) (*ChowLiuTree, error) {
	ri := m.IndexOf(root)
	if ri < 0 {
		return nil, fmt.Errorf("ml: Chow-Liu root %s not in MI matrix", root)
	}
	n := m.Dim()
	tree := &ChowLiuTree{Root: root}
	if n == 1 {
		return tree, nil
	}

	inTree := make([]bool, n)
	bestMI := make([]float64, n) // best MI connecting i to the tree
	bestVia := make([]int, n)    // the tree node achieving it
	order := make([]int, 0, n)   // candidate scan order for tie-break
	for i := 0; i < n; i++ {
		bestMI[i] = -1
		bestVia[i] = -1
		order = append(order, i)
	}
	// Deterministic tie-break by attribute name.
	sort.Slice(order, func(a, b int) bool { return m.Attrs[order[a]] < m.Attrs[order[b]] })

	attach := func(v int) {
		inTree[v] = true
		for i := 0; i < n; i++ {
			if inTree[i] {
				continue
			}
			if mi := m.At(v, i); mi > bestMI[i] || (mi == bestMI[i] && m.Attrs[v] < m.Attrs[bestVia[i]]) {
				bestMI[i] = mi
				bestVia[i] = v
			}
		}
	}
	attach(ri)
	for step := 1; step < n; step++ {
		pick := -1
		for _, i := range order {
			if inTree[i] {
				continue
			}
			if pick < 0 || bestMI[i] > bestMI[pick] {
				pick = i
			}
		}
		tree.Edges = append(tree.Edges, ChowLiuEdge{
			Parent: m.Attrs[bestVia[pick]],
			Child:  m.Attrs[pick],
			MI:     bestMI[pick],
		})
		tree.TotalMI += bestMI[pick]
		attach(pick)
	}
	return tree, nil
}

// Children returns the children of attr in the tree, sorted.
func (t *ChowLiuTree) Children(attr string) []string {
	var out []string
	for _, e := range t.Edges {
		if e.Parent == attr {
			out = append(out, e.Child)
		}
	}
	sort.Strings(out)
	return out
}

// String renders the tree as an indented hierarchy from the root.
func (t *ChowLiuTree) String() string {
	var b strings.Builder
	var rec func(node string, depth int)
	rec = func(node string, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(node)
		b.WriteByte('\n')
		for _, c := range t.Children(node) {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
	return b.String()
}
