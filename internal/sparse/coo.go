package sparse

import (
	"fmt"
	"sort"
)

// COO accumulates matrix entries in coordinate (triplet) form and
// converts them to CSR. Duplicate entries are summed on conversion,
// matching the MatrixMarket convention. It is the builder used by the
// generators and the .mtx reader.
type COO struct {
	Rows, Cols int
	I, J       []int32
	V          []float64
}

// NewCOO returns an empty triplet accumulator for a rows x cols matrix
// with capacity hint cap entries.
func NewCOO(rows, cols int, capHint int) *COO {
	return &COO{
		Rows: rows,
		Cols: cols,
		I:    make([]int32, 0, capHint),
		J:    make([]int32, 0, capHint),
		V:    make([]float64, 0, capHint),
	}
}

// Add appends entry (i, j) = v. Panics on out-of-range coordinates:
// that is a programming error in the generator, not an input condition.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("sparse: COO entry (%d,%d) out of %dx%d", i, j, c.Rows, c.Cols))
	}
	c.I = append(c.I, int32(i))
	c.J = append(c.J, int32(j))
	c.V = append(c.V, v)
}

// AddSym appends (i, j) = v and, when i != j, the mirror (j, i) = v.
// Used when expanding symmetric MatrixMarket storage.
func (c *COO) AddSym(i, j int, v float64) {
	c.Add(i, j, v)
	if i != j {
		c.Add(j, i, v)
	}
}

// Len returns the number of accumulated triplets (before deduplication).
func (c *COO) Len() int { return len(c.V) }

// ToCSR converts the triplets to CSR, sorting each row's columns
// ascending and summing duplicates. Entries that sum to exactly zero
// are retained (pattern preservation matters for reordering
// experiments).
func (c *COO) ToCSR() *CSR {
	n := len(c.V)
	// Counting sort by row, then sort columns within each row. This is
	// O(nnz log(row width)) and allocation-lean, which matters because
	// generators build matrices with 10^8-scale nnz at full paper scale.
	rowPtr := make([]int64, c.Rows+1)
	for _, i := range c.I {
		rowPtr[i+1]++
	}
	for i := 0; i < c.Rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int32, n)
	val := make([]float64, n)
	next := make([]int64, c.Rows)
	copy(next, rowPtr[:c.Rows])
	for k := 0; k < n; k++ {
		i := c.I[k]
		dst := next[i]
		next[i]++
		colIdx[dst] = c.J[k]
		val[dst] = c.V[k]
	}
	// Sort within rows and merge duplicates in place.
	outPtr := make([]int64, c.Rows+1)
	w := int64(0)
	for i := 0; i < c.Rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		row := rowSorter{colIdx[lo:hi], val[lo:hi]}
		sort.Sort(row)
		outPtr[i] = w
		for k := lo; k < hi; {
			ccol := colIdx[k]
			sum := val[k]
			k++
			for k < hi && colIdx[k] == ccol {
				sum += val[k]
				k++
			}
			colIdx[w] = ccol
			val[w] = sum
			w++
		}
	}
	outPtr[c.Rows] = w
	return &CSR{
		Rows:   c.Rows,
		Cols:   c.Cols,
		RowPtr: outPtr,
		ColIdx: colIdx[:w:w],
		Val:    val[:w:w],
	}
}

type rowSorter struct {
	cols []int32
	vals []float64
}

func (r rowSorter) Len() int           { return len(r.cols) }
func (r rowSorter) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r rowSorter) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}
