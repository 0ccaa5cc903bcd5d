// Package sparse implements the sparse-matrix substrate used by FBMPK:
// the CSR storage format (the paper's working format), a COO/triplet
// builder, the A = L + D + U split at the heart of the forward-backward
// pipeline, the SpMV and SpMM kernels with their row-range forms, and
// the SELL-C-sigma and BSR formats behind the plan's execution backends
// (the direction the paper's future-work section points at).
//
// All matrices are square or rectangular CSR with float64 values and
// int32 column indices (int32 halves index traffic, which matters for a
// memory-bound kernel; none of the evaluation matrices approach 2^31
// rows).
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format, as described
// in Section II-A of the paper: RowPtr has length Rows+1, and row i
// occupies ColIdx[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]].
// Column indices within a row are kept sorted ascending; all
// constructors in this package establish that invariant and kernels
// rely on it (the L/U split and the forward/backward sweeps need it).
type CSR struct {
	Rows, Cols int
	RowPtr     []int64
	ColIdx     []int32
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int64 {
	if len(m.RowPtr) == 0 {
		return 0
	}
	return m.RowPtr[m.Rows]
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int {
	return int(m.RowPtr[i+1] - m.RowPtr[i])
}

// Row returns the column-index and value slices of row i, aliasing the
// matrix storage.
func (m *CSR) Row(i int) ([]int32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// At returns the value at (i, j), or 0 if no entry is stored. It uses
// binary search over the sorted row.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return vals[k]
	}
	return 0
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int64, len(m.RowPtr)),
		ColIdx: make([]int32, len(m.ColIdx)),
		Val:    make([]float64, len(m.Val)),
	}
	copy(c.RowPtr, m.RowPtr)
	copy(c.ColIdx, m.ColIdx)
	copy(c.Val, m.Val)
	return c
}

// NewCSR builds a CSR matrix from fully-formed arrays after validating
// the structural invariants. The slices are retained, not copied.
func NewCSR(rows, cols int, rowPtr []int64, colIdx []int32, val []float64) (*CSR, error) {
	m := &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks the CSR structural invariants: monotone row pointers,
// in-range sorted column indices, and consistent array lengths.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: len(RowPtr)=%d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0]=%d, want 0", m.RowPtr[0])
	}
	nnz := m.RowPtr[m.Rows]
	if int64(len(m.ColIdx)) != nnz || int64(len(m.Val)) != nnz {
		return fmt.Errorf("sparse: len(ColIdx)=%d len(Val)=%d, want nnz=%d",
			len(m.ColIdx), len(m.Val), nnz)
	}
	// Complete the monotonicity pass before dereferencing any ColIdx
	// range: a RowPtr that overshoots nnz in the middle and collapses
	// back by the end passes the length check above, and only the full
	// pass (anchored at RowPtr[0]=0 and RowPtr[Rows]=nnz) proves every
	// per-row range lies within the arrays.
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
	}
	for i := 0; i < m.Rows; i++ {
		prev := int32(-1)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			if c < 0 || int(c) >= m.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", c, i)
			}
			if c <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly ascending (%d after %d)", i, c, prev)
			}
			prev = c
		}
	}
	return nil
}

// IsSymmetric reports whether the matrix equals its transpose within
// tolerance tol on values (pattern must match exactly up to entries
// whose magnitude is <= tol).
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	t := m.Transpose()
	if len(t.ColIdx) != len(m.ColIdx) {
		// Pattern asymmetric; still possible values below tol differ.
		return m.maxDiff(t) <= tol
	}
	return m.maxDiff(t) <= tol
}

// maxDiff returns max |m - o| over the union pattern. Both matrices
// must have identical shape.
func (m *CSR) maxDiff(o *CSR) float64 {
	maxd := 0.0
	for i := 0; i < m.Rows; i++ {
		ca, va := m.Row(i)
		cb, vb := o.Row(i)
		p, q := 0, 0
		for p < len(ca) || q < len(cb) {
			switch {
			case q >= len(cb) || (p < len(ca) && ca[p] < cb[q]):
				maxd = math.Max(maxd, math.Abs(va[p]))
				p++
			case p >= len(ca) || cb[q] < ca[p]:
				maxd = math.Max(maxd, math.Abs(vb[q]))
				q++
			default:
				maxd = math.Max(maxd, math.Abs(va[p]-vb[q]))
				p++
				q++
			}
		}
	}
	return maxd
}

// Transpose returns a new CSR holding the transpose, computed with the
// usual two-pass counting algorithm (O(nnz + rows + cols)).
func (m *CSR) Transpose() *CSR {
	t := &CSR{Rows: m.Cols, Cols: m.Rows, Val: make([]float64, m.NNZ())}
	t.RowPtr, t.ColIdx = m.transpose(t.Val)
	return t
}

// TransposePattern returns the row pointers and column indices of the
// transpose and never touches the values: what a graph traversal of
// the symmetrized pattern needs beside m's own rows, at a third of
// Transpose's allocation.
func (m *CSR) TransposePattern() (rowPtr []int64, colIdx []int32) {
	return m.transpose(nil)
}

// transpose builds the transposed structure and, when val is non-nil,
// scatters the values into it alongside.
func (m *CSR) transpose(val []float64) (rowPtr []int64, colIdx []int32) {
	rowPtr = make([]int64, m.Cols+1)
	colIdx = make([]int32, m.NNZ())
	for _, c := range m.ColIdx {
		rowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	next := make([]int64, m.Cols)
	copy(next, rowPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			dst := next[c]
			next[c]++
			colIdx[dst] = int32(i)
			if val != nil {
				val[dst] = m.Val[k]
			}
		}
	}
	return rowPtr, colIdx
}

// Diagonal extracts the main diagonal into a dense vector of length
// min(Rows, Cols); absent entries are zero.
func (m *CSR) Diagonal() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// Bandwidth returns the matrix bandwidth max |i - j| over stored
// entries (0 for diagonal or empty matrices).
func (m *CSR) Bandwidth() int {
	bw := 0
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			d := i - int(c)
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// Equal reports whether two matrices have the same shape, pattern and
// values (exact comparison).
func (m *CSR) Equal(o *CSR) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols || m.NNZ() != o.NNZ() {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for k := range m.ColIdx {
		if m.ColIdx[k] != o.ColIdx[k] || m.Val[k] != o.Val[k] {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether two matrices share a pattern and their
// values differ by at most tol entrywise.
func (m *CSR) AlmostEqual(o *CSR, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols || m.NNZ() != o.NNZ() {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for k := range m.ColIdx {
		if m.ColIdx[k] != o.ColIdx[k] {
			return false
		}
		if math.Abs(m.Val[k]-o.Val[k]) > tol {
			return false
		}
	}
	return true
}

// ToDense expands the matrix into a row-major dense matrix. Intended
// for tests and tiny examples only.
func (m *CSR) ToDense() [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
		cols, vals := m.Row(i)
		for k, c := range cols {
			d[i][c] = vals[k]
		}
	}
	return d
}

// ErrNotSquare is returned by operations requiring a square matrix.
var ErrNotSquare = errors.New("sparse: matrix is not square")

// String returns a short structural description, e.g. "CSR 100x100 nnz=500".
func (m *CSR) String() string {
	return fmt.Sprintf("CSR %dx%d nnz=%d", m.Rows, m.Cols, m.NNZ())
}

// MemoryBytes returns the storage footprint of the CSR arrays in bytes
// (Table IV of the paper compares this against the split format).
func (m *CSR) MemoryBytes() int64 {
	return int64(len(m.RowPtr))*8 + int64(len(m.ColIdx))*4 + int64(len(m.Val))*8
}
