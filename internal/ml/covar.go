// Package ml implements the machine-learning applications the paper
// demonstrates on top of maintained ring payloads: ridge linear
// regression fit to a COVAR matrix by conjugate gradient on the normal
// equations the matrix determines,
// pairwise mutual information from the same matrix's category counts,
// Chow-Liu trees, and MI-threshold model selection.
package ml

import (
	"fmt"
	"slices"
	"sync"

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
	// layout is the one-hot column layout Cols comes from, and pattern
	// where each coefficient of the payload landed (nil unless the build
	// was given a prev).
	layout  *sigmaLayout
	pattern *sigmaPattern
}

// sigmaPattern is Σ's sparsity structure over one payload's keys and
// where each of its coefficients lands: every Σ over a payload with the
// same keys shares it and only reads the values. It is immutable once
// built.
type sigmaPattern struct {
	keys   *ring.RelCovar // a copy of the payload: only its keys are read
	dst    []sigmaDst     // dst[k] places Visit's k-th coefficient
	rowPtr []int
	col    []int32
}

// sigmaDst places one coefficient: the count, a column's sum (at), or
// an entry of Σ (at, and its mirror unless -1); dstSkip drops it.
type sigmaDst struct {
	kind       uint8
	at, mirror int32
}

const (
	dstSkip uint8 = iota
	dstCount
	dstSum
	dstEntry
)

// fill builds the Σ of c, whose keys are p's, over layout l.
func (p *sigmaPattern) fill(c *ring.RelCovar, l *sigmaLayout) *SigmaMatrix {
	m := &SigmaMatrix{Cols: l.cols, Sum: make([]float64, len(l.cols)), rowPtr: p.rowPtr, col: p.col,
		val: make([]float64, len(p.col)), layout: l, pattern: p}
	k := 0
	c.Visit(func(_, _ int, _, _ ring.CatID, v float64) bool {
		switch d := p.dst[k]; d.kind {
		case dstCount:
			m.Count = v
		case dstSum:
			m.Sum[d.at] = v
		case dstEntry:
			m.val[d.at] = v
			if d.mirror >= 0 {
				m.val[d.mirror] = v
			}
		}
		k++
		return true
	})
	return m
}

// sigmaLayout is the one-hot column layout of one category set: the
// columns and their labels, and per feature the categories s holds, in
// CatID order, with the column of each. It is immutable once built but
// for the labels, rendered once on first use, so every Σ over the same
// category set shares one, across fits and goroutines.
type sigmaLayout struct {
	feats      []Feature
	ids        [][]ring.CatID
	colOf      [][]int
	cols       []Column
	labelsOnce sync.Once
	labels     []string
}

// newSigmaLayout decodes and sorts each categorical feature's
// categories (ids[a], in CatID order) into columns: a continuous
// feature gets one column, a categorical one a column per category in
// value order.
func newSigmaLayout(feats []Feature, ids [][]ring.CatID) *sigmaLayout {
	l := &sigmaLayout{feats: slices.Clone(feats), ids: ids, colOf: make([][]int, len(feats))}
	for a, f := range feats {
		if !f.Categorical {
			l.colOf[a] = []int{len(l.cols)}
			l.cols = append(l.cols, Column{Attr: f.Name})
			continue
		}
		vals, order := make([]value.Value, len(ids[a])), make([]int, len(ids[a]))
		for k, id := range ids[a] {
			vals[k], order[k] = value.MustDecodeTuple(ring.CategoryKey(id))[0], k
		}
		slices.SortFunc(order, func(x, y int) int { return vals[x].Compare(vals[y]) })
		l.colOf[a] = make([]int, len(order))
		for _, k := range order {
			l.colOf[a][k] = len(l.cols)
			l.cols = append(l.cols, Column{Attr: f.Name, Category: vals[k], IsCat: true})
		}
	}
	return l
}

// fits reports whether the layout is that of feats over the category
// sets ids.
func (l *sigmaLayout) fits(feats []Feature, ids [][]ring.CatID) bool {
	if !slices.Equal(l.feats, feats) {
		return false
	}
	for a, f := range feats {
		if f.Categorical && !slices.Equal(l.ids[a], ids[a]) {
			return false
		}
	}
	return true
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

// ColumnLabel returns Cols[i].Label(), rendered once per layout.
func (m *SigmaMatrix) ColumnLabel(i int) string {
	l := m.layout
	l.labelsOnce.Do(func() {
		l.labels = make([]string, len(l.cols))
		for i, c := range l.cols {
			l.labels[i] = c.Label()
		}
	})
	return l.labels[i]
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

// SigmaFromRelCovar converts a generalized (relational-valued) COVAR
// payload into a SigmaMatrix, one-hot expanding categorical attributes
// over their observed categories (in value order), in one Visit: c and
// s come first and fix the columns, then each Q coefficient is an entry.
// prev (which may be nil) is the previous Σ of a chain of builds over
// one evolving payload: over a payload with the same keys and features,
// the new matrix shares its columns and sparsity structure and only
// reads c's values; over the same category sets, it shares the columns
// instead of decoding and sorting the categories again. A build given a
// prev also records where c's coefficients landed, for the next one.
func SigmaFromRelCovar(c *ring.RelCovar, feats []Feature, prev *SigmaMatrix) (*SigmaMatrix, error) {
	if c == nil {
		return nil, fmt.Errorf("ml: nil payload (empty join result)")
	}
	if prev != nil && prev.pattern != nil && slices.Equal(prev.layout.feats, feats) && c.SameKeys(prev.pattern.keys) {
		return prev.pattern.fill(c, prev.layout), nil
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
	colOf, cur := [][]int(nil), make([]int, len(feats))
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
	// With a prev, place records where each coefficient goes (a sum's at
	// and mirror hold its feature and category index, an entry's at its
	// index in upper, until the columns and rows are known), for the
	// next build over the same keys.
	var dst []sigmaDst
	place := func(sigmaDst) {}
	if prev != nil {
		dst = make([]sigmaDst, 0, c.Len())
		place = func(d sigmaDst) { dst = append(dst, d) }
	}
	columns := func() {
		if prev != nil && prev.layout.fits(feats, ids) {
			m.layout = prev.layout
		} else {
			m.layout = newSigmaLayout(feats, ids)
		}
		m.Cols, colOf = m.layout.cols, m.layout.colOf
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
			place(sigmaDst{kind: dstCount})
		case j < 0:
			// A continuous feature reads its scalar; any keyed
			// coefficient in its slot finds no column.
			switch a := featAt[i]; {
			case a < 0 || !feats[a].Categorical && p1 != 0:
				place(sigmaDst{})
			case feats[a].Categorical && p1 == 0:
				err = fmt.Errorf("ml: s_%s holds tuple (), want arity 1", feats[a].Name)
				return false
			default:
				place(sigmaDst{kind: dstSum, at: int32(a), mirror: int32(len(ids[a]))})
				ids[a], sums[a] = append(ids[a], p1), append(sums[a], v)
			}
		default:
			if upper == nil {
				columns()
			}
			a, b := featAt[i], featAt[j]
			if a < 0 || b < 0 {
				place(sigmaDst{})
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
			if !okA || !okB {
				place(sigmaDst{})
				return true
			}
			place(sigmaDst{kind: dstEntry, at: int32(len(upper))})
			upper = append(upper, sigmaEntry{int32(ci), int32(cj), v})
			rowLen[ci]++
			if ci != cj {
				rowLen[cj]++
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
	at := m.scatter(upper, rowLen)
	if prev == nil {
		return m, nil
	}
	for k, d := range dst {
		switch d.kind {
		case dstSum:
			dst[k].at = int32(colOf[d.at][d.mirror])
		case dstEntry:
			dst[k].at, dst[k].mirror = at[2*d.at], at[2*d.at+1]
		}
	}
	m.pattern = &sigmaPattern{keys: c.Clone(), dst: dst, rowPtr: m.rowPtr, col: m.col}
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
// at[2u] is where upper[u] landed in val, at[2u+1] its mirror (-1 on the
// diagonal).
func (m *SigmaMatrix) scatter(upper []sigmaEntry, rowLen []int) (at []int32) {
	n := len(rowLen)
	m.rowPtr = make([]int, n+1)
	for i, l := range rowLen {
		m.rowPtr[i+1] = m.rowPtr[i] + l
	}
	next := slices.Clone(m.rowPtr[:n]) // by symmetry, rowPtr delimits the column buckets too
	rowOf, from := make([]int32, m.rowPtr[n]), make([]int32, m.rowPtr[n])
	put := func(i, j int32, f int) {
		rowOf[next[j]], from[next[j]] = i, int32(f)
		next[j]++
	}
	at = make([]int32, 2*len(upper))
	for u, e := range upper {
		put(e.i, e.j, 2*u)
		at[2*u+1] = -1
		if e.i != e.j {
			put(e.j, e.i, 2*u+1)
		}
	}
	copy(next, m.rowPtr)
	m.col, m.val = make([]int32, m.rowPtr[n]), make([]float64, m.rowPtr[n])
	for j := 0; j < n; j++ {
		for k := m.rowPtr[j]; k < m.rowPtr[j+1]; k++ {
			p, f := next[rowOf[k]], from[k]
			m.col[p], m.val[p], at[f] = int32(j), upper[f/2].v, int32(p)
			next[rowOf[k]]++
		}
	}
	return at
}
