// Package reorder implements the matrix reordering substrate:
// permutation utilities, the reverse Cuthill-McKee ordering (the
// locality baseline in Section II-C), the algebraic block multi-color
// ordering (ABMC, Section III-D) that exposes FBMPK's parallelism, and
// level scheduling (the alternative strategy in Section VII).
package reorder

import (
	"fmt"

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

// ValueMap returns, for each nonzero slot of ApplySym(a)'s value
// array, the index of the source entry in a.Val: if b = P·A·Pᵀ, then
// b.Val[k] == a.Val[m[k]]. The map depends only on a's structure and
// p, so a plan can keep it and gather fresh execution-order values
// from any matrix with identical structure without re-running the
// symmetric permutation. The entry ordering replays ApplySymPool's
// gather-then-insertion-sort exactly, so the gathered array is bitwise
// identical to a fresh ApplySym.
func (p Perm) ValueMap(a *sparse.CSR) ([]int64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("reorder: ValueMap: %w", sparse.ErrNotSquare)
	}
	if len(p) != a.Rows {
		return nil, fmt.Errorf("reorder: perm length %d != matrix rows %d", len(p), a.Rows)
	}
	inv := p.Inverse()
	n := a.Rows
	m := make([]int64, a.NNZ())
	type ent struct {
		c   int32
		src int64
	}
	var buf []ent
	w := int64(0)
	for i := 0; i < n; i++ {
		cols, _ := a.Row(int(p[i]))
		base := a.RowPtr[int(p[i])]
		buf = buf[:0]
		for k, c := range cols {
			buf = append(buf, ent{inv[c], base + int64(k)})
		}
		for x := 1; x < len(buf); x++ {
			e := buf[x]
			y := x - 1
			for y >= 0 && buf[y].c > e.c {
				buf[y+1] = buf[y]
				y--
			}
			buf[y+1] = e
		}
		for _, e := range buf {
			m[w] = e.src
			w++
		}
	}
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
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("reorder: ApplySym: %w", sparse.ErrNotSquare)
	}
	if len(p) != a.Rows {
		return nil, fmt.Errorf("reorder: perm length %d != matrix rows %d", len(p), a.Rows)
	}
	inv := p.Inverse()
	n := a.Rows
	b := &sparse.CSR{
		Rows:   n,
		Cols:   n,
		RowPtr: make([]int64, n+1),
		ColIdx: make([]int32, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	for i := 0; i < n; i++ {
		b.RowPtr[i+1] = b.RowPtr[i] + int64(a.RowNNZ(int(p[i])))
	}
	type ent struct {
		c int32
		v float64
	}
	sparse.ForRanges(r, 0, n, func(_, start, end int) {
		var buf []ent
		for i := start; i < end; i++ {
			cols, vals := a.Row(int(p[i]))
			buf = buf[:0]
			for k, c := range cols {
				buf = append(buf, ent{inv[c], vals[k]})
			}
			// Insertion sort: rows are short and nearly sorted for
			// locality-preserving permutations.
			for x := 1; x < len(buf); x++ {
				e := buf[x]
				y := x - 1
				for y >= 0 && buf[y].c > e.c {
					buf[y+1] = buf[y]
					y--
				}
				buf[y+1] = e
			}
			base := b.RowPtr[i]
			for k, e := range buf {
				b.ColIdx[base+int64(k)] = e.c
				b.Val[base+int64(k)] = e.v
			}
		}
	})
	return b, nil
}
