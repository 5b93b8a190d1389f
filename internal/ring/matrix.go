package ring

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Matrix is a dense square matrix over float64: a value of the (square)
// matrix ring of dimension n. Matrix multiplication is not commutative,
// which the view engine supports — payload products always multiply in
// a fixed structural order.
//
// The paper lists matrix chain multiplication among the applications
// the same view tree maintains with only a ring change. Rectangular
// chains are handled by the float-ring encoding (see the fivm package's
// ExampleEngine_InitWeighted, where entries live in payloads of index
// tuples); this ring covers the square case where whole matrices are
// the payloads — e.g. aggregating products of per-tuple transition
// matrices.
//
// A nil *Matrix is the ring's zero. Values are immutable by convention.
type Matrix struct {
	n    int
	Data []float64 // row-major, length n*n
}

// Dim returns the matrix dimension n.
func (m *Matrix) Dim() int { return m.n }

// At returns entry (i, j); the nil zero reads as all zeros.
func (m *Matrix) At(i, j int) float64 {
	if m == nil {
		return 0
	}
	return m.Data[i*m.n+j]
}

// Equal reports element-wise equality.
func (m *Matrix) Equal(o *Matrix) bool {
	mz, oz := m == nil, o == nil
	if mz || oz {
		return mz == oz
	}
	if m.n != o.n {
		return false
	}
	for i, v := range m.Data {
		if o.Data[i] != v {
			return false
		}
	}
	return true
}

// String renders the matrix row by row.
func (m *Matrix) String() string {
	if m == nil {
		return "[0]"
	}
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < m.n; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(value.Float(m.At(i, j)).String())
		}
	}
	b.WriteByte(']')
	return b.String()
}

// MatrixRing is the ring of n×n float64 matrices: element-wise +,
// matrix multiplication as ×, the zero matrix as 0, and the identity
// matrix as 1. Multiplication is intentionally non-commutative.
type MatrixRing struct{ n int }

// NewMatrixRing returns the ring of n×n matrices; it panics for n <= 0.
func NewMatrixRing(n int) MatrixRing {
	if n <= 0 {
		panic("ring: MatrixRing dimension must be positive")
	}
	return MatrixRing{n: n}
}

// Dim returns n.
func (r MatrixRing) Dim() int { return r.n }

// New returns a zero-filled (but non-nil) matrix of the ring's
// dimension, for callers assembling payloads entry by entry.
func (r MatrixRing) New() *Matrix {
	return &Matrix{n: r.n, Data: make([]float64, r.n*r.n)}
}

// FromRows builds a matrix from row slices; it panics on dimension
// mismatch (construction-time programming errors).
func (r MatrixRing) FromRows(rows [][]float64) *Matrix {
	if len(rows) != r.n {
		panic(fmt.Sprintf("ring: %d rows for dimension %d", len(rows), r.n))
	}
	m := r.New()
	for i, row := range rows {
		if len(row) != r.n {
			panic(fmt.Sprintf("ring: row %d has %d entries for dimension %d", i, len(row), r.n))
		}
		copy(m.Data[i*r.n:(i+1)*r.n], row)
	}
	return m
}

// Zero returns nil.
func (r MatrixRing) Zero() *Matrix { return nil }

// One returns the identity matrix.
func (r MatrixRing) One() *Matrix {
	m := r.New()
	for i := 0; i < r.n; i++ {
		m.Data[i*r.n+i] = 1
	}
	return m
}

// Add returns the element-wise sum.
func (r MatrixRing) Add(a, b *Matrix) *Matrix {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := r.New()
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Mul returns the matrix product a·b (order matters).
func (r MatrixRing) Mul(a, b *Matrix) *Matrix {
	if a == nil || b == nil {
		return nil
	}
	n := r.n
	out := r.New()
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a.Data[i*n+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += aik * b.Data[k*n+j]
			}
		}
	}
	return out
}

// Neg returns the element-wise negation.
func (r MatrixRing) Neg(a *Matrix) *Matrix {
	if a == nil {
		return nil
	}
	out := r.New()
	for i := range out.Data {
		out.Data[i] = -a.Data[i]
	}
	return out
}

// IsZero reports whether a is nil or all zeros.
func (r MatrixRing) IsZero(a *Matrix) bool {
	if a == nil {
		return true
	}
	for _, v := range a.Data {
		if v != 0 {
			return false
		}
	}
	return true
}
