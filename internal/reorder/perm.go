// Package reorder implements the matrix reordering substrate:
// permutation utilities, the reverse Cuthill-McKee ordering (the
// locality baseline in Section II-C), the algebraic block multi-color
// ordering (ABMC, Section III-D) that exposes FBMPK's parallelism, and
// level scheduling (the alternative strategy in Section VII).
package reorder

import (
	"fmt"
	"slices"

	"fbmpk/internal/sparse"
)

// Perm is a row/column permutation. perm[new] = old: row new of the
// permuted matrix is row perm[new] of the original. This is the
// "gather" convention: applying to a vector, y[new] = x[perm[new]].
type Perm []int32

// Identity returns the identity permutation of length n.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// Validate checks that p is a bijection on [0, len(p)).
func (p Perm) Validate() error {
	seen := make([]bool, len(p))
	for i, v := range p {
		if v < 0 || int(v) >= len(p) {
			return fmt.Errorf("reorder: perm[%d] = %d out of range", i, v)
		}
		if seen[v] {
			return fmt.Errorf("reorder: perm maps two positions to %d", v)
		}
		seen[v] = true
	}
	return nil
}

// Inverse returns q with q[old] = new, so q[p[i]] = i.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for i, v := range p {
		q[v] = int32(i)
	}
	return q
}

// ApplyVec gathers x into y: y[new] = x[p[new]]. x and y must not
// alias.
func (p Perm) ApplyVec(x, y []float64) {
	if len(x) != len(p) || len(y) != len(p) {
		panic("reorder: ApplyVec length mismatch")
	}
	for i, v := range p {
		y[i] = x[v]
	}
}

// UnapplyVec scatters y back to original order: x[p[new]] = y[new].
func (p Perm) UnapplyVec(y, x []float64) {
	if len(x) != len(p) || len(y) != len(p) {
		panic("reorder: UnapplyVec length mismatch")
	}
	for i, v := range p {
		x[v] = y[i]
	}
}

// permutedRows walks the rows of B = P·A·Pᵀ, row-parallel over r (nil =
// serial), and returns B's row pointer. emit receives each output row i
// with the slot base it starts at and its entries in ascending
// new-column order, each packed newcol<<32 | offset of the entry in
// source row p[i]; keys is scratch, valid for the call only. Packing
// makes the row one flat sort of machine words, and because a
// permutation maps a row's distinct columns to distinct columns no two
// keys tie on the high half, so the order is the one a stable sort by
// column gives. A row whose mapped columns already ascend (every row
// under the identity, most under a block-preserving ordering) skips the
// sort. The caller has checked p against a (checkSym).
func (p Perm) permutedRows(a *sparse.CSR, r sparse.Runner, emit func(i int, base int64, keys []uint64)) []int64 {
	inv := p.Inverse()
	n := a.Rows
	rowPtr := make([]int64, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i] + int64(a.RowNNZ(int(p[i])))
	}
	sparse.ForRanges(r, 0, n, func(_, start, end int) {
		var keys []uint64
		for i := start; i < end; i++ {
			cols, _ := a.Row(int(p[i]))
			keys = keys[:0]
			ascending, prev := true, int32(-1)
			for k, c := range cols {
				nc := inv[c]
				ascending = ascending && nc > prev
				prev = nc
				keys = append(keys, uint64(nc)<<32|uint64(k))
			}
			if !ascending {
				slices.Sort(keys)
			}
			emit(i, rowPtr[i], keys)
		}
	})
	return rowPtr
}

// checkSym reports whether p can symmetrically permute a: a square, p
// of its order.
func (p Perm) checkSym(a *sparse.CSR) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("reorder: symmetric permutation of a %dx%d matrix: %w", a.Rows, a.Cols, sparse.ErrNotSquare)
	}
	if len(p) != a.Rows {
		return fmt.Errorf("reorder: perm length %d != matrix rows %d", len(p), a.Rows)
	}
	return nil
}

// ValueMap returns, for each nonzero slot of ApplySym(a)'s value
// array, the index of the source entry in a.Val: if b = P·A·Pᵀ, then
// b.Val[k] == a.Val[m[k]]. The map depends only on a's structure and
// p, so a plan can keep it and gather fresh execution-order values
// from any matrix with identical structure without re-running the
// symmetric permutation. It is read off the same ordered rows ApplySym
// writes, so the gathered array is bitwise identical to a fresh
// ApplySym.
func (p Perm) ValueMap(a *sparse.CSR) ([]int64, error) {
	if err := p.checkSym(a); err != nil {
		return nil, err
	}
	m := make([]int64, a.NNZ())
	p.permutedRows(a, nil, func(i int, base int64, keys []uint64) {
		src := a.RowPtr[p[i]]
		for k, key := range keys {
			m[base+int64(k)] = src + int64(uint32(key))
		}
	})
	return m, nil
}

// ApplySym symmetrically permutes a square matrix: B = P·A·Pᵀ, i.e.
// B[i][j] = A[p[i]][p[j]]. Row columns are re-sorted to keep the CSR
// invariant.
func (p Perm) ApplySym(a *sparse.CSR) (*sparse.CSR, error) {
	return p.ApplySymPool(a, nil)
}

// ApplySymPool is ApplySym with the O(nnz) gather/sort pass
// row-parallelized over r (nil = serial). Every output row is an
// independent gather of one input row into a pre-computed disjoint
// range, so the permuted matrix is bitwise identical to the serial
// apply for any worker count; only the O(n) row-pointer prefix sum
// stays serial.
func (p Perm) ApplySymPool(a *sparse.CSR, r sparse.Runner) (*sparse.CSR, error) {
	if err := p.checkSym(a); err != nil {
		return nil, err
	}
	b := &sparse.CSR{
		Rows:   a.Rows,
		Cols:   a.Rows,
		ColIdx: make([]int32, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	b.RowPtr = p.permutedRows(a, r, func(i int, base int64, keys []uint64) {
		_, vals := a.Row(int(p[i]))
		cols, out := b.ColIdx[base:], b.Val[base:]
		for k, key := range keys {
			cols[k] = int32(key >> 32)
			out[k] = vals[uint32(key)]
		}
	})
	return b, nil
}
