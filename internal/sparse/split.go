package sparse

import "fmt"

// Triangular holds the A = L + D + U decomposition of a square matrix
// (Section III-A of the paper): L is the strictly lower triangle, U the
// strictly upper triangle, both in CSR, and D the main diagonal stored
// as a dense vector to save index storage and the inner-loop lookup.
//
// Table IV of the paper compares the memory footprint of this layout
// against plain CSR: ColIdx shrinks from nnz to nnz-n entries (no
// stored diagonal indices), RowPtr doubles to 2(n+1), and the diagonal
// costs n float64s — nearly identical in total.
type Triangular struct {
	N int
	L *CSR      // strictly lower triangle, rows sorted ascending
	U *CSR      // strictly upper triangle, rows sorted ascending
	D []float64 // main diagonal (zeros where A has no diagonal entry)
}

// Split decomposes a square CSR matrix into L, D, U. Structural zeros
// on the diagonal become zeros in D; off-diagonal entries keep their
// positions. The input is not modified.
func Split(a *CSR) (*Triangular, error) {
	return SplitPool(a, nil)
}

// SplitPool is Split with the O(nnz) passes row-parallelized over r
// (nil = serial). The decomposition is two passes — per-row L/U entry
// counts, then a fill into pre-sized arrays — with only the O(n)
// prefix sum between them serial, so the result is bitwise identical
// to the serial split for any worker count.
func SplitPool(a *CSR, r Runner) (*Triangular, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: Split: %w (%dx%d)", ErrNotSquare, a.Rows, a.Cols)
	}
	n := a.Rows
	// Pass 1: count strictly-lower entries per row. The strict-upper
	// count follows from the row width and whether a diagonal entry is
	// stored, so one counter per row suffices.
	nLRow := make([]int32, n)
	hasDiag := make([]bool, n)
	ForRanges(r, 0, n, func(_, start, end int) {
		for i := start; i < end; i++ {
			cols, _ := a.Row(i)
			nl := int32(0)
			for _, c := range cols {
				if int(c) < i {
					nl++
				} else {
					if int(c) == i {
						hasDiag[i] = true
					}
					break
				}
			}
			nLRow[i] = nl
		}
	})
	t := &Triangular{
		N: n,
		L: &CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)},
		U: &CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)},
		D: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		nl := int64(nLRow[i])
		nu := int64(a.RowNNZ(i)) - nl
		if hasDiag[i] {
			nu--
		}
		t.L.RowPtr[i+1] = t.L.RowPtr[i] + nl
		t.U.RowPtr[i+1] = t.U.RowPtr[i] + nu
	}
	nL, nU := t.L.RowPtr[n], t.U.RowPtr[n]
	t.L.ColIdx = make([]int32, nL)
	t.L.Val = make([]float64, nL)
	t.U.ColIdx = make([]int32, nU)
	t.U.Val = make([]float64, nU)
	// Pass 2: fill. Each row writes its own pre-computed L/U ranges,
	// so ranges are disjoint across workers.
	ForRanges(r, 0, n, func(_, start, end int) {
		for i := start; i < end; i++ {
			cols, vals := a.Row(i)
			wl, wu := t.L.RowPtr[i], t.U.RowPtr[i]
			for k, c := range cols {
				switch {
				case int(c) < i:
					t.L.ColIdx[wl] = c
					t.L.Val[wl] = vals[k]
					wl++
				case int(c) > i:
					t.U.ColIdx[wu] = c
					t.U.Val[wu] = vals[k]
					wu++
				default:
					t.D[i] = vals[k]
				}
			}
		}
	})
	return t, nil
}

// WithValues builds a new Triangular holding, in t's structure, fresh
// values for the matrix t was split from: rowPtr is that matrix's row
// pointer and its entry j takes vals[slot[j]] (vals[j] when slot is
// nil), so a caller holding the values of a permutation of that matrix
// passes the slot map instead of materializing the permuted array.
// Entries are dealt in the order Split consumed them, the only one
// sorted rows allow: a row's strictly-lower run into L, its stored
// diagonal entry if it has one more entry than L and U account for,
// its strictly-upper run into U. L and U share t's RowPtr/ColIdx; Val
// and D are fresh and the receiver is not modified, so readers of the
// old values keep them. The caller vouches for the structure.
//
// fill(lo, hi) writes the values of rows [lo, hi); nt is complete once
// the calls cover every row that holds an entry. Each call writes only
// its own rows' slots, so calls on disjoint ranges may run concurrently,
// and how the rows were cut never reaches the result.
func (t *Triangular) WithValues(rowPtr []int64, vals []float64, slot []int64) (nt *Triangular, fill func(lo, hi int)) {
	n := t.N
	lv, uv, d := make([]float64, t.L.NNZ()), make([]float64, t.U.NNZ()), make([]float64, n)
	nt = &Triangular{
		N: n,
		L: &CSR{Rows: n, Cols: n, RowPtr: t.L.RowPtr, ColIdx: t.L.ColIdx, Val: lv},
		U: &CSR{Rows: n, Cols: n, RowPtr: t.U.RowPtr, ColIdx: t.U.ColIdx, Val: uv},
		D: d,
	}
	return nt, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Row i's entries: L's run [j, dj), then U's run [uj, rowPtr[i+1])
			// and, when that leaves room for one, the diagonal at dj.
			j, lLo, uLo := rowPtr[i], t.L.RowPtr[i], t.U.RowPtr[i]
			dj := j + t.L.RowPtr[i+1] - lLo
			uj := rowPtr[i+1] - (t.U.RowPtr[i+1] - uLo)
			FillValues(lv[lLo:], vals, slot, j, dj)
			FillValues(d[i:], vals, slot, dj, uj)
			FillValues(uv[uLo:], vals, slot, uj, rowPtr[i+1])
		}
	}
}

// FillValues writes the values of entries [j, end) to dst: a copy of
// vals[j:end], or through a slot map vals[slot[j]], ..., vals[slot[end-1]].
func FillValues(dst, vals []float64, slot []int64, j, end int64) {
	if slot == nil {
		copy(dst, vals[j:end])
		return
	}
	dst = dst[:end-j]
	for k, s := range slot[j:end] {
		dst[k] = vals[s]
	}
}

// MemoryBytes returns the storage footprint of the split layout
// (L and U CSR arrays plus the diagonal vector), for Table IV.
func (t *Triangular) MemoryBytes() int64 {
	return t.L.MemoryBytes() + t.U.MemoryBytes() + int64(len(t.D))*8
}

// Validate checks the triangular invariants: L strictly lower, U
// strictly upper, matching dimensions.
func (t *Triangular) Validate() error {
	if t.L.Rows != t.N || t.U.Rows != t.N || len(t.D) != t.N {
		return fmt.Errorf("sparse: Triangular dimension mismatch")
	}
	if err := t.L.Validate(); err != nil {
		return fmt.Errorf("sparse: L: %w", err)
	}
	if err := t.U.Validate(); err != nil {
		return fmt.Errorf("sparse: U: %w", err)
	}
	for i := 0; i < t.N; i++ {
		cols, _ := t.L.Row(i)
		for _, c := range cols {
			if int(c) >= i {
				return fmt.Errorf("sparse: L has entry (%d,%d) on or above diagonal", i, c)
			}
		}
		cols, _ = t.U.Row(i)
		for _, c := range cols {
			if int(c) <= i {
				return fmt.Errorf("sparse: U has entry (%d,%d) on or below diagonal", i, c)
			}
		}
	}
	return nil
}
