package ml

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ring"
)

// MIMatrix is the symmetric matrix of pairwise mutual information over a
// set of attributes (diagonal = entropies).
type MIMatrix struct {
	Attrs []string
	Data  []float64
	n     int
}

// Dim returns the number of attributes.
func (m *MIMatrix) Dim() int { return m.n }

// At returns I(attr_i, attr_j).
func (m *MIMatrix) At(i, j int) float64 { return m.Data[i*m.n+j] }

// IndexOf returns the position of attr, or -1.
func (m *MIMatrix) IndexOf(attr string) int {
	for i, a := range m.Attrs {
		if a == attr {
			return i
		}
	}
	return -1
}

// MIFromRelCovar builds the pairwise MI matrix from a generalized COVAR
// payload whose features are all categorical (continuous attributes
// must have been lifted with binned/categorical lifts). feats addresses
// the payload components. It reads the payload once, through Σ
// (SigmaFromRelCovar): a column's Sum is its category's count, so a
// feature's entropy comes from the sums of its columns, and I(X, Y)
// from the entries of X's rows in Y's columns, each the count of one
// category pair. The result uses natural logarithms (nats). A feature's
// columns are contiguous and sorted by category value, and rows by
// column, so every sum runs in a fixed order: the matrix is a function
// of the counts alone, which ChowLiu's tie-breaks rely on.
func MIFromRelCovar(c *ring.RelCovar, feats []Feature) (*MIMatrix, error) {
	if c == nil {
		return nil, fmt.Errorf("ml: nil payload (empty join result)")
	}
	for _, f := range feats {
		if !f.Categorical {
			return nil, fmt.Errorf("ml: MI needs categorical (or binned) lifts, feature %s is continuous", f.Name)
		}
	}
	sigma, err := SigmaFromRelCovar(c, feats)
	if err != nil {
		return nil, err
	}
	n := len(feats)
	m := &MIMatrix{n: n, Attrs: make([]string, n), Data: make([]float64, n*n)}
	for i, f := range feats {
		m.Attrs[i] = f.Name
	}
	total := sigma.Count
	if total <= 0 {
		return m, nil
	}
	// Σ's columns come in feats order: featOf maps a column to its feature.
	featOf := make([]int, 0, sigma.Dim())
	for a, f := range feats {
		for len(featOf) < sigma.Dim() && sigma.Cols[len(featOf)].Attr == f.Name {
			featOf = append(featOf, a)
		}
	}
	for x := range sigma.Cols {
		a := featOf[x]
		nx := sigma.Sum[x]
		if nx <= 0 {
			continue
		}
		p := nx / total
		m.Data[a*n+a] -= p * math.Log(p)
		cols, vals := sigma.row(x)
		for k, y := range cols {
			b, nxy, ny := featOf[y], vals[k], sigma.Sum[y]
			if b <= a || nxy <= 0 || ny <= 0 {
				continue
			}
			m.Data[a*n+b] += nxy / total * math.Log(total*nxy/(nx*ny))
		}
	}
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			mi := max(m.Data[a*n+b], 0) // clamp numeric noise; MI is non-negative
			m.Data[a*n+b], m.Data[b*n+a] = mi, mi
		}
	}
	return m, nil
}

// RankedAttr is one attribute with its MI score against the label.
type RankedAttr struct {
	Attr string
	MI   float64
}

// SelectFeatures ranks every non-label attribute by its MI with the
// label (descending, ties by name) and returns the ranking plus the
// subset meeting the threshold — the demo's Model Selection tab.
func SelectFeatures(m *MIMatrix, label string, threshold float64) (ranking []RankedAttr, selected []string, err error) {
	li := m.IndexOf(label)
	if li < 0 {
		return nil, nil, fmt.Errorf("ml: label %s not in MI matrix", label)
	}
	for i, a := range m.Attrs {
		if i == li {
			continue
		}
		ranking = append(ranking, RankedAttr{Attr: a, MI: m.At(li, i)})
	}
	sort.Slice(ranking, func(i, j int) bool {
		if ranking[i].MI != ranking[j].MI {
			return ranking[i].MI > ranking[j].MI
		}
		return ranking[i].Attr < ranking[j].Attr
	})
	for _, r := range ranking {
		if r.MI >= threshold {
			selected = append(selected, r.Attr)
		}
	}
	return ranking, selected, nil
}
