// Package m3 renders a view tree in the M3-style intermediate
// representation shown in the paper's Maintenance Strategy tab
// (Figure 2d): one DECLARE MAP per view, defined as an AggSum over the
// product of its children views, anchored relations, and the lift of
// the marginalized variable.
package m3

import (
	"fmt"
	"strings"

	"repro/internal/view"
)

// RingInfo names the payload ring for the DECLARE MAP headers, e.g.
// "RingCofactor<double, 2, 6>" or "long" for the Z ring.
type RingInfo struct {
	// Name is the ring's display name.
	Name string
	// LiftIndexOf returns the aggregate index a variable's lift writes
	// to, or -1 when the variable has no lift. Used for the
	// "[lift<idx>](X)" factor; may be nil.
	LiftIndexOf func(varName string) int
}

// Program is the rendered M3 program: the view tree as a drawing plus
// one declaration per view.
type Program struct {
	// TreeDrawing is an indented rendering of the view tree.
	TreeDrawing string
	// Declarations lists the per-view M3 code, root first.
	Declarations []string
}

// String joins the drawing and all declarations.
func (p Program) String() string {
	var b strings.Builder
	b.WriteString(p.TreeDrawing)
	b.WriteString("\n")
	for _, d := range p.Declarations {
		b.WriteString(d)
		b.WriteString("\n")
	}
	return b.String()
}

// Render produces the M3 program for a view tree.
func Render[V any](t *view.Tree[V], info RingInfo) Program {
	var p Program
	var draw strings.Builder
	for _, r := range t.Roots() {
		drawNode(&draw, r, 0)
	}
	p.TreeDrawing = draw.String()
	for _, r := range t.Roots() {
		declNode(t, r, info, &p.Declarations)
	}
	return p
}

func drawNode[V any](b *strings.Builder, n *view.Node[V], depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%sV@%s[%s]\n", indent, n.Var(), strings.Join(n.Keys().Attrs(), ", "))
	for _, rel := range n.RelNames() {
		fmt.Fprintf(b, "%s  %s[...]\n", indent, rel)
	}
	for _, c := range n.Children() {
		drawNode(b, c, depth+1)
	}
}

func declNode[V any](t *view.Tree[V], n *view.Node[V], info RingInfo, out *[]string) {
	var b strings.Builder
	keys := n.Keys().Attrs()
	fmt.Fprintf(&b, "DECLARE MAP V_%s(%s)[][%s] :=\n", n.Var(), info.Name, typedKeys(keys))
	fmt.Fprintf(&b, "  AggSum([%s],\n    ", strings.Join(keys, ", "))

	var factors []string
	for _, c := range n.Children() {
		factors = append(factors, fmt.Sprintf("V_%s(%s)[][%s]<Local>", c.Var(), info.Name, strings.Join(c.Keys().Attrs(), ", ")))
	}
	for _, rel := range n.RelNames() {
		factors = append(factors, fmt.Sprintf("%s(long)[][...]<Local>", rel))
	}
	if t.Lift(n.Var()) != nil {
		idx := -1
		if info.LiftIndexOf != nil {
			idx = info.LiftIndexOf(n.Var())
		}
		if idx >= 0 {
			factors = append(factors, fmt.Sprintf("[lift<%d>: %s](%s)", idx, info.Name, n.Var()))
		} else {
			factors = append(factors, fmt.Sprintf("[lift: %s](%s)", info.Name, n.Var()))
		}
	}
	b.WriteString(strings.Join(factors, "\n    * "))
	b.WriteString("\n  );")
	*out = append(*out, b.String())
	for _, c := range n.Children() {
		declNode(t, c, info, out)
	}
}

func typedKeys(keys []string) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + ": long"
	}
	return strings.Join(parts, ", ")
}
