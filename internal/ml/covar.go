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
	// featAt maps a ring index to the feature's position in feats.
	featAt := make([]int, c.Degree())
	for i := range featAt {
		featAt[i] = -1
	}
	for a, f := range feats {
		if f.Index < 0 || f.Index >= len(featAt) {
			return nil, fmt.Errorf("ml: feature %s has index %d outside the degree-%d payload", f.Name, f.Index, len(featAt))
		}
		featAt[f.Index] = a
	}

	// Categories per categorical feature come from the s vector, which
	// the payload stores ahead of Q.
	type category struct {
		id  ring.CatID
		val value.Value
	}
	catsOf := make([][]category, len(feats))
	var err error
	c.Visit(func(i, j int, p1, _ ring.CatID, _ float64) bool {
		if j >= 0 {
			return false
		}
		if i < 0 || featAt[i] < 0 || !feats[featAt[i]].Categorical {
			return true
		}
		a := featAt[i]
		if p1 == 0 {
			err = fmt.Errorf("ml: s_%s holds tuple (), want arity 1", feats[a].Name)
			return false
		}
		catsOf[a] = append(catsOf[a], category{p1, value.MustDecodeTuple(ring.CategoryKey(p1))[0]})
		return true
	})
	if err != nil {
		return nil, err
	}

	// colOf maps (feature position, category id) to the expanded column;
	// a continuous feature's one column sits under id 0.
	colKey := func(a int, id ring.CatID) uint64 { return uint64(a)<<32 | uint64(id) }
	colOf := make(map[uint64]int)
	var cols []Column
	for a, f := range feats {
		if !f.Categorical {
			colOf[colKey(a, 0)] = len(cols)
			cols = append(cols, Column{Attr: f.Name})
			continue
		}
		cs := catsOf[a]
		sort.Slice(cs, func(x, y int) bool { return cs[x].val.Compare(cs[y].val) < 0 })
		for _, ct := range cs {
			colOf[colKey(a, ct.id)] = len(cols)
			cols = append(cols, Column{Attr: f.Name, Category: ct.val, IsCat: true})
		}
	}
	n := len(cols)
	m := &SigmaMatrix{n: n, Cols: cols, Sum: make([]float64, n), Data: make([]float64, n*n)}

	c.Visit(func(i, j int, p1, p2 ring.CatID, v float64) bool {
		switch {
		case i < 0:
			m.Count = v
		case j < 0:
			// A continuous feature reads its scalar; any keyed
			// coefficient in its slot finds no column.
			if a := featAt[i]; a >= 0 {
				if col, ok := colOf[colKey(a, p1)]; ok {
					m.Sum[col] = v
				}
			}
		default:
			a, b := featAt[i], featAt[j]
			if a < 0 || b < 0 {
				return true
			}
			// Q_ij keys carry the i-part first, left-packed: the parts
			// present are those of the categorical features, in order.
			// The diagonal of a categorical attribute is Q_XX = {x ->
			// count}: one part naming both columns (one-hot columns of
			// distinct categories are orthogonal).
			ida, idb := ring.CatID(0), ring.CatID(0)
			rest := [2]ring.CatID{p1, p2}
			if feats[a].Categorical {
				ida, rest = rest[0], [2]ring.CatID{rest[1], 0}
			}
			if i == j {
				idb = ida
			} else if feats[b].Categorical {
				idb, rest = rest[0], [2]ring.CatID{rest[1], 0}
			}
			if rest[0] != 0 || (ida == 0) == feats[a].Categorical || (idb == 0) == feats[b].Categorical {
				err = fmt.Errorf("ml: Q_%s,%s key (%q, %q) has unexpected arity",
					feats[a].Name, feats[b].Name, ring.CategoryKey(p1), ring.CategoryKey(p2))
				return false
			}
			// A category the s vector does not list (its count cancelled
			// while signed products remain) has no column to land in.
			ci, okA := colOf[colKey(a, ida)]
			cj, okB := colOf[colKey(b, idb)]
			if okA && okB {
				m.set(ci, cj, v)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}
