// Package ml implements the machine-learning applications the paper
// demonstrates on top of maintained ring payloads: ridge linear
// regression re-converged from a COVAR matrix by warm-started conjugate
// gradient on the normal equations the matrix determines,
// pairwise mutual information from the same matrix's category counts,
// Chow-Liu trees, and MI-threshold model selection.
package ml

import (
	"fmt"
	"slices"

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

// SigmaMatrix is Σ = SUM(col_i * col_j) over the one-hot-expanded
// feature space — one column per continuous attribute, one per observed
// category of a categorical one — with the count and column sums: the
// bridge between ring payloads and the numeric solvers. Like the
// payload, it stores only the entries that occur, in compressed sparse
// row form (both triangles, rows sorted by column).
type SigmaMatrix struct {
	// Count is the number of training tuples (SUM(1) over the join).
	Count float64
	// Cols describes each expanded column.
	Cols []Column
	// Sum holds SUM(col) per expanded column.
	Sum []float64
	// Row i's entries are col[rowPtr[i]:rowPtr[i+1]], values alongside.
	rowPtr []int
	col    []int32
	val    []float64
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
func (m *SigmaMatrix) Dim() int { return len(m.Cols) }

// row returns the column indexes and values of row i's entries.
func (m *SigmaMatrix) row(i int) ([]int32, []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.col[lo:hi], m.val[lo:hi]
}

// At returns SUM(col_i * col_j), 0 where the payload holds no entry.
func (m *SigmaMatrix) At(i, j int) float64 {
	cols, vals := m.row(i)
	if k, ok := slices.BinarySearch(cols, int32(j)); ok {
		return vals[k]
	}
	return 0
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

// SigmaFromCovar converts a scalar COVAR payload (all-continuous features)
// into a SigmaMatrix with dense rows, one column per feature in feats order.
func SigmaFromCovar(c *ring.Covar, feats []Feature) (*SigmaMatrix, error) {
	n := len(feats)
	m := &SigmaMatrix{Count: c.Count(), Cols: make([]Column, n), Sum: make([]float64, n)}
	upper, rowLen := make([]sigmaEntry, 0, n*(n+1)/2), make([]int, n)
	for i, f := range feats {
		if f.Categorical {
			return nil, fmt.Errorf("ml: feature %s is categorical; use SigmaFromRelCovar", f.Name)
		}
		m.Cols[i] = Column{Attr: f.Name}
		m.Sum[i] = c.Sum(f.Index)
		for j := i; j < n; j++ {
			upper = append(upper, sigmaEntry{int32(i), int32(j), c.Prod(f.Index, feats[j].Index)})
		}
		rowLen[i] = n
	}
	m.scatter(upper, rowLen)
	return m, nil
}

// SigmaFromRelCovar converts a generalized (relational-valued) COVAR
// payload into a SigmaMatrix, one-hot expanding categorical attributes
// over their observed categories (in value order), in one Visit: c and
// s come first and fix the columns, then each Q coefficient is an entry.
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

	// ids[a]: categorical feature a's categories in CatID order, as s_a
	// stores them; sums[a] their sums (a continuous feature's one sum) and
	// colOf[a] their columns; cur[a] the last lookup's hit.
	ids, sums := make([][]ring.CatID, len(feats)), make([][]float64, len(feats))
	colOf, cur := make([][]int, len(feats)), make([]int, len(feats))
	lookup := func(a int, id ring.CatID) (int, bool) {
		if !feats[a].Categorical {
			return colOf[a][0], id == 0
		}
		// A slot visits its categories in ids order: try the last hit's successor
		// and itself first. A category s_a lacks (count cancelled) has no column.
		k, ids := cur[a], ids[a]
		if k+1 < len(ids) && ids[k+1] == id {
			k++
		} else if k >= len(ids) || ids[k] != id {
			var ok bool
			if k, ok = slices.BinarySearch(ids, id); !ok {
				return 0, false
			}
		}
		cur[a] = k
		return colOf[a][k], true
	}
	m := &SigmaMatrix{}
	upper, rowLen := []sigmaEntry(nil), []int(nil) // upper is nil until columns has run
	columns := func() {
		for a, f := range feats {
			if !f.Categorical {
				colOf[a] = []int{len(m.Cols)}
				m.Cols = append(m.Cols, Column{Attr: f.Name})
				continue
			}
			vals, order := make([]value.Value, len(ids[a])), make([]int, len(ids[a]))
			for k, id := range ids[a] {
				vals[k], order[k] = value.MustDecodeTuple(ring.CategoryKey(id))[0], k
			}
			slices.SortFunc(order, func(x, y int) int { return vals[x].Compare(vals[y]) })
			colOf[a] = make([]int, len(order))
			for _, k := range order {
				colOf[a][k] = len(m.Cols)
				m.Cols = append(m.Cols, Column{Attr: f.Name, Category: vals[k], IsCat: true})
			}
		}
		m.Sum, rowLen = make([]float64, len(m.Cols)), make([]int, len(m.Cols))
		for a := range feats {
			for k, v := range sums[a] {
				m.Sum[colOf[a][k]] = v
			}
		}
		upper = make([]sigmaEntry, 0, c.Len())
	}
	var err error
	c.Visit(func(i, j int, p1, p2 ring.CatID, v float64) bool {
		switch {
		case i < 0:
			m.Count = v
		case j < 0:
			// A continuous feature reads its scalar; any keyed
			// coefficient in its slot finds no column.
			switch a := featAt[i]; {
			case a < 0 || !feats[a].Categorical && p1 != 0:
			case feats[a].Categorical && p1 == 0:
				err = fmt.Errorf("ml: s_%s holds tuple (), want arity 1", feats[a].Name)
				return false
			default:
				ids[a], sums[a] = append(ids[a], p1), append(sums[a], v)
			}
		default:
			if upper == nil {
				columns()
			}
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
			ci, okA := lookup(a, ida)
			cj, okB := lookup(b, idb)
			if okA && okB {
				upper = append(upper, sigmaEntry{int32(ci), int32(cj), v})
				rowLen[ci]++
				if ci != cj {
					rowLen[cj]++
				}
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if upper == nil {
		columns()
	}
	m.scatter(upper, rowLen)
	return m, nil
}

// sigmaEntry is one entry (i, j) of Σ.
type sigmaEntry struct {
	i, j int32
	v    float64
}

// scatter stores the symmetric matrix with upper-triangle entries upper
// (rowLen[i] in row i once mirrored) in O(entries + n), no sort: it buckets
// each entry and its mirror by column, then walks the buckets in column
// order appending to rows — a transpose, the identity here, sorting rows.
func (m *SigmaMatrix) scatter(upper []sigmaEntry, rowLen []int) {
	n := len(rowLen)
	m.rowPtr = make([]int, n+1)
	for i, l := range rowLen {
		m.rowPtr[i+1] = m.rowPtr[i] + l
	}
	next := slices.Clone(m.rowPtr[:n]) // by symmetry, rowPtr delimits the column buckets too
	rowOf, valOf := make([]int32, m.rowPtr[n]), make([]float64, m.rowPtr[n])
	put := func(i, j int32, v float64) {
		rowOf[next[j]], valOf[next[j]] = i, v
		next[j]++
	}
	for _, e := range upper {
		put(e.i, e.j, e.v)
		if e.i != e.j {
			put(e.j, e.i, e.v)
		}
	}
	copy(next, m.rowPtr)
	m.col, m.val = make([]int32, m.rowPtr[n]), make([]float64, m.rowPtr[n])
	for j := 0; j < n; j++ {
		for k := m.rowPtr[j]; k < m.rowPtr[j+1]; k++ {
			i := rowOf[k]
			m.col[next[i]], m.val[next[i]] = int32(j), valOf[k]
			next[i]++
		}
	}
}
