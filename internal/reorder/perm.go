// Package reorder implements the matrix reordering substrate:
// permutation utilities, the reverse Cuthill-McKee ordering (the
// locality baseline in Section II-C), the algebraic block multi-color
// ordering (ABMC, Section III-D) that exposes FBMPK's parallelism, and
// level scheduling (the alternative strategy in Section VII).
package reorder

import (
	"fmt"
	"math"
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
// serial), and returns B's row pointer; inv is p.Inverse(). emit
// receives each output row i with the slot base it starts at and the
// entries of source row p[i] in ascending new-column order, in one of
// two forms, both scratch valid for the call only:
//
//   - entry by entry (starts nil): heads[j] packs an entry's new column
//     <<32 | its offset in the source row;
//   - as runs — stretches of consecutive source entries whose columns
//     all move by the same shift inv[c]-c, so a run's new columns ascend
//     as its old ones do: heads[j] packs the run's first new column <<32
//     | its ordinal o, and the run is source entries
//     starts[o]..starts[o+1].
//
// Either way the row is one flat sort of machine words, skipped when
// they already ascend (every row under the identity), and because a
// permutation maps distinct columns to distinct columns no two tie. A
// block-preserving ordering (ABMC) moves whole row blocks, so a row is
// one maximal run per block it touches and sorting it means sorting
// those few heads. That is the form taken when the maximal runs average
// minRunLen entries or more; under it (columns that scatter: BFS
// levels, a sparse row over many blocks) a run's bookkeeping costs more
// than sorting every entry does. Sorted heads put a row in order only
// if no run reaches past the head of the next — two blocks with the
// same shift and a third landing between them is all it takes to break
// that — so a row whose sorted runs overlap goes entry by entry too.
// The caller has checked p against a (checkSym).
func (p Perm) permutedRows(a *sparse.CSR, inv Perm, r sparse.Runner, emit func(i int, base int64, heads []uint64, starts []int32)) []int64 {
	n := a.Rows
	rowPtr := make([]int64, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i] + int64(a.RowNNZ(int(p[i])))
	}
	sparse.ForRanges(r, 0, n, func(_, start, end int) {
		var keys, heads []uint64
		var starts []int32
		for i := start; i < end; i++ {
			cols, _ := a.Row(int(p[i]))
			if len(cols) >= len(starts) {
				keys, heads, starts = make([]uint64, 2*len(cols)), make([]uint64, 2*len(cols)+1), make([]int32, 2*len(cols)+1)
			}
			// Both forms in one pass without a data-dependent branch: slot
			// nr is rewritten until an entry that starts a run claims it.
			// No shift is MinInt32, so entry 0 always starts one.
			nr, ascending, prev, shift := 0, true, int32(-1), int32(math.MinInt32)
			for k, c := range cols {
				nc := inv[c]
				keys[k] = uint64(nc)<<32 | uint64(k)
				heads[nr], starts[nr] = uint64(nc)<<32|uint64(nr), int32(k)
				if nc-c != shift {
					nr++
				}
				shift = nc - c
				ascending = ascending && nc > prev
				prev = nc
			}
			starts[nr] = int32(len(cols))
			runs := nr*minRunLen <= len(cols)
			if runs && !ascending {
				slices.Sort(heads[:nr])
				runs = !runsOverlap(cols, heads[:nr], starts)
			}
			if runs {
				emit(i, rowPtr[i], heads[:nr], starts)
				continue
			}
			if !ascending {
				slices.Sort(keys[:len(cols)])
			}
			emit(i, rowPtr[i], keys[:len(cols)], nil)
		}
	})
	return rowPtr
}

// minRunLen is the average run length from which permutedRows hands a
// row out as runs; the two forms cross between cage14's 1.5 and pwtk's
// 4.7 entries a run under their ABMC orderings (measured on this host).
const minRunLen = 4

// runsOverlap reports whether some run of a row (permutedRows' heads,
// sorted, and starts over the source columns cols) ends at or past the
// new column the next one begins at.
func runsOverlap(cols []int32, heads []uint64, starts []int32) bool {
	for j, h := range heads[:len(heads)-1] {
		first, last := starts[uint32(h)], starts[uint32(h)+1]-1
		if int32(h>>32)+cols[last]-cols[first] >= int32(heads[j+1]>>32) {
			return true
		}
	}
	return false
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
	p.permutedRows(a, p.Inverse(), nil, func(i int, w int64, heads []uint64, starts []int32) {
		src := a.RowPtr[p[i]]
		for _, h := range heads {
			lo, hi := runOf(h, starts)
			for k := lo; k < hi; k++ {
				m[w] = src + int64(k)
				w++
			}
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

// ApplySymPool is ApplySym with the O(nnz) pass row-parallelized over r
// (nil = serial). Every output row is an independent gather of one
// input row into a pre-computed disjoint range, so the permuted matrix
// is bitwise identical to the serial apply for any worker count; only
// the O(n) row-pointer prefix sum stays serial.
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
	b.RowPtr = p.permutedRows(a, p.Inverse(), r, func(i int, w int64, heads []uint64, starts []int32) {
		cols, vals := a.Row(int(p[i]))
		if starts == nil {
			// The flat loop a scattering order (the level-blocked build's)
			// spends its time in; runOf's detour is a third of it.
			for _, h := range heads {
				b.ColIdx[w], b.Val[w] = int32(h>>32), vals[uint32(h)]
				w++
			}
			return
		}
		for _, h := range heads {
			lo, hi := runOf(h, starts)
			shift := int32(h>>32) - cols[lo]
			for k := lo; k < hi; k++ {
				b.ColIdx[w], b.Val[w] = cols[k]+shift, vals[k]
				w++
			}
		}
	})
	return b, nil
}

// runOf returns the source-row entries lo..hi that head h of
// permutedRows stands for: a run under starts, one entry without.
func runOf(h uint64, starts []int32) (lo, hi int32) {
	if starts == nil {
		return int32(uint32(h)), int32(uint32(h)) + 1
	}
	return starts[uint32(h)], starts[uint32(h)+1]
}

// SplitSym returns the L+D+U split of B = P·A·Pᵀ and B's row pointer
// without building B: a count pass sizes the two row pointers (an entry
// of row i lands in L, D or U as its new column compares with i), then
// the ordered rows of permutedRows are dealt straight into the three.
// Both passes are row-parallel over r (nil = serial) into disjoint
// pre-computed ranges, so the result is bitwise
// sparse.Split(p.ApplySym(a)) for any worker count, and what is
// allocated is the split and O(n) beside it.
func (p Perm) SplitSym(a *sparse.CSR, r sparse.Runner) (*sparse.Triangular, []int64, error) {
	if err := p.checkSym(a); err != nil {
		return nil, nil, err
	}
	n := a.Rows
	inv := p.Inverse()
	t := &sparse.Triangular{
		N: n,
		L: &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)},
		U: &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)},
		D: make([]float64, n),
	}
	sparse.ForRanges(r, 0, n, func(_, start, end int) {
		for i := start; i < end; i++ {
			cols, _ := a.Row(int(p[i]))
			var nl, nu int64
			for _, c := range cols {
				switch nc := int(inv[c]); {
				case nc < i:
					nl++
				case nc > i:
					nu++
				}
			}
			t.L.RowPtr[i+1], t.U.RowPtr[i+1] = nl, nu
		}
	})
	for i := 0; i < n; i++ {
		t.L.RowPtr[i+1] += t.L.RowPtr[i]
		t.U.RowPtr[i+1] += t.U.RowPtr[i]
	}
	t.L.ColIdx, t.L.Val = make([]int32, t.L.RowPtr[n]), make([]float64, t.L.RowPtr[n])
	t.U.ColIdx, t.U.Val = make([]int32, t.U.RowPtr[n]), make([]float64, t.U.RowPtr[n])
	rowPtr := p.permutedRows(a, inv, r, func(i int, _ int64, heads []uint64, starts []int32) {
		cols, vals := a.Row(int(p[i]))
		wl, wu := t.L.RowPtr[i], t.U.RowPtr[i]
		for _, h := range heads {
			lo, hi := runOf(h, starts)
			shift := int32(h>>32) - cols[lo]
			for k := lo; k < hi; k++ {
				switch nc := int(cols[k] + shift); {
				case nc < i:
					t.L.ColIdx[wl], t.L.Val[wl] = int32(nc), vals[k]
					wl++
				case nc > i:
					t.U.ColIdx[wu], t.U.Val[wu] = int32(nc), vals[k]
					wu++
				default:
					t.D[i] = vals[k]
				}
			}
		}
	})
	return t, rowPtr, nil
}
