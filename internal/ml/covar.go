// Package ml implements the machine-learning applications the paper
// demonstrates on top of maintained ring payloads: ridge linear
// regression re-converged from a COVAR matrix by warm-started conjugate
// gradient on the normal equations the matrix determines,
// pairwise mutual information from maintained count tables, Chow-Liu
// trees, and MI-threshold model selection.
package ml

import (
	"fmt"
	"sort"

	"repro/internal/ring"
	"repro/internal/value"
)

// Feature describes one attribute participating in an analysis: its
// name, whether it is categorical, and its position (aggregate index) in
// the ring payload.
type Feature struct {
	Name        string
	Categorical bool
	Index       int
}

// SigmaMatrix is a dense symmetric matrix over the one-hot-expanded
// feature space, together with the expansion bookkeeping: each original
// attribute maps to one column (continuous) or one column per observed
// category (categorical). It is the bridge between ring payloads and
// the numeric solvers.
type SigmaMatrix struct {
	// Count is the number of training tuples (SUM(1) over the join).
	Count float64
	// Cols describes each expanded column.
	Cols []Column
	// Sum holds SUM(col) per expanded column.
	Sum []float64
	// Data is the dense row-major symmetric matrix SUM(col_i * col_j).
	Data []float64
	n    int
}

// Column is one expanded column: the source attribute and, for
// categorical attributes, the category value it one-hot encodes.
type Column struct {
	Attr     string
	Category value.Value // NULL for continuous columns
	IsCat    bool
}

// Label renders the column name, e.g. "price" or "category=4".
func (c Column) Label() string {
	if !c.IsCat {
		return c.Attr
	}
	return c.Attr + "=" + c.Category.String()
}

// Dim returns the number of expanded columns.
func (m *SigmaMatrix) Dim() int { return m.n }

// At returns SUM(col_i * col_j).
func (m *SigmaMatrix) At(i, j int) float64 { return m.Data[i*m.n+j] }

func (m *SigmaMatrix) set(i, j int, v float64) {
	m.Data[i*m.n+j] = v
	m.Data[j*m.n+i] = v
}

// ColumnsOf returns the expanded column indexes of attribute attr.
func (m *SigmaMatrix) ColumnsOf(attr string) []int {
	var out []int
	for i, c := range m.Cols {
		if c.Attr == attr {
			out = append(out, i)
		}
	}
	return out
}

// SigmaFromCovar converts a scalar COVAR payload (all-continuous
// features) into a SigmaMatrix. feats[i].Index addresses the payload;
// the resulting matrix has one column per feature in feats order.
func SigmaFromCovar(c *ring.Covar, feats []Feature) (*SigmaMatrix, error) {
	n := len(feats)
	m := &SigmaMatrix{n: n, Cols: make([]Column, n), Sum: make([]float64, n), Data: make([]float64, n*n)}
	m.Count = c.Count()
	for i, f := range feats {
		if f.Categorical {
			return nil, fmt.Errorf("ml: feature %s is categorical; use SigmaFromRelCovar", f.Name)
		}
		m.Cols[i] = Column{Attr: f.Name}
		m.Sum[i] = c.Sum(f.Index)
	}
	for i := range feats {
		for j := i; j < n; j++ {
			m.set(i, j, c.Prod(feats[i].Index, feats[j].Index))
		}
	}
	return m, nil
}

// SigmaFromRelCovar converts a generalized (relational-valued) COVAR
// payload into a dense SigmaMatrix, one-hot expanding categorical
// attributes over their observed categories. Interactions between two
// categories that never co-occur are zero, as are diagonal blocks across
// distinct categories of one attribute (one-hot columns are orthogonal).
func SigmaFromRelCovar(c *ring.RelCovar, feats []Feature) (*SigmaMatrix, error) {
	if c == nil {
		return nil, fmt.Errorf("ml: nil payload (empty join result)")
	}
	// Collect categories per categorical feature from the s vector.
	catsOf := make(map[string][]value.Value)
	for _, f := range feats {
		if !f.Categorical {
			continue
		}
		s := c.Sum(f.Index)
		cats := make([]value.Value, 0, s.Len())
		for k := range s {
			tp := value.MustDecodeTuple(k)
			if len(tp) != 1 {
				return nil, fmt.Errorf("ml: s_%s holds tuple %v, want arity 1", f.Name, tp)
			}
			cats = append(cats, tp[0])
		}
		sort.Slice(cats, func(i, j int) bool { return cats[i].Compare(cats[j]) < 0 })
		catsOf[f.Name] = cats
	}

	var cols []Column
	colIdx := map[string]int{} // "attr\x00encodedCat" -> column
	for _, f := range feats {
		if f.Categorical {
			for _, cat := range catsOf[f.Name] {
				colIdx[f.Name+"\x00"+value.Tuple{cat}.Encode()] = len(cols)
				cols = append(cols, Column{Attr: f.Name, Category: cat, IsCat: true})
			}
		} else {
			colIdx[f.Name+"\x00"] = len(cols)
			cols = append(cols, Column{Attr: f.Name})
		}
	}
	n := len(cols)
	m := &SigmaMatrix{n: n, Cols: cols, Sum: make([]float64, n), Data: make([]float64, n*n)}
	m.Count = c.Count().Scalar()

	// Sums.
	for _, f := range feats {
		s := c.Sum(f.Index)
		if f.Categorical {
			for k, v := range s {
				m.Sum[colIdx[f.Name+"\x00"+k]] = v
			}
		} else {
			m.Sum[colIdx[f.Name+"\x00"]] = s.Scalar()
		}
	}

	// Products. Q entries for i <= j store tuple keys with the i-part
	// first.
	for a := 0; a < len(feats); a++ {
		for b := a; b < len(feats); b++ {
			fa, fb := feats[a], feats[b]
			q := c.Prod(fa.Index, fb.Index)
			if a == b && fa.Categorical {
				// Diagonal of a categorical attribute: Q_XX = {x -> count},
				// arity 1; off-category entries are zero (one-hot columns
				// are orthogonal).
				for k, v := range q {
					ci := colIdx[fa.Name+"\x00"+k]
					m.set(ci, ci, v)
				}
				continue
			}
			// Orient: Prod(i,j) with i<=j by ring index.
			swapped := fa.Index > fb.Index
			for k, v := range q {
				tp := value.MustDecodeTuple(k)
				first, second := fa, fb
				if swapped {
					first, second = fb, fa
				}
				pos := 0
				ci, cj := -1, -1
				if first.Categorical {
					ci = colIdx[first.Name+"\x00"+value.Tuple{tp[pos]}.Encode()]
					pos++
				} else {
					ci = colIdx[first.Name+"\x00"]
				}
				if second.Categorical {
					cj = colIdx[second.Name+"\x00"+value.Tuple{tp[pos]}.Encode()]
					pos++
				} else {
					cj = colIdx[second.Name+"\x00"]
				}
				if pos != len(tp) {
					return nil, fmt.Errorf("ml: Q_%s,%s tuple %v has unexpected arity", fa.Name, fb.Name, tp)
				}
				if swapped {
					ci, cj = cj, ci
				}
				m.set(ci, cj, v)
			}
		}
	}
	return m, nil
}
