package sparse

import "sort"

// SELL-C-sigma (Kreutzer et al., cited by the paper as a candidate
// future storage format): rows are grouped into chunks of C rows; each
// chunk is padded to its own widest row and stored column-major within
// the chunk. Rows are optionally sorted by length within windows of
// sigma rows before chunking, which shrinks padding while keeping
// locality. The permutation is recorded so SpMV produces results in
// the original row order.

// SELL is a SELL-C-sigma sparse matrix.
type SELL struct {
	Rows, Cols int
	C          int     // chunk height
	Sigma      int     // sorting window (multiple of C; 1 = no sorting)
	ChunkPtr   []int64 // offset of each chunk's storage, len nChunks+1
	ChunkWidth []int32 // width of each chunk, len nChunks
	ColIdx     []int32
	Val        []float64
	Perm       []int32 // storage row s holds original row Perm[s]
}

// ToSELL converts a CSR matrix to SELL-C-sigma. c must be positive;
// sigma <= 1 disables row sorting, otherwise it is rounded up to a
// multiple of c.
func ToSELL(a *CSR, c, sigma int) *SELL {
	if c <= 0 {
		panic("sparse: SELL chunk height must be positive")
	}
	if sigma < 1 {
		sigma = 1
	}
	if sigma > 1 && sigma%c != 0 {
		sigma += c - sigma%c
	}
	n := a.Rows
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if sigma > 1 {
		for w := 0; w < n; w += sigma {
			hi := w + sigma
			if hi > n {
				hi = n
			}
			win := perm[w:hi]
			sort.SliceStable(win, func(x, y int) bool {
				return a.RowNNZ(int(win[x])) > a.RowNNZ(int(win[y]))
			})
		}
	}
	nChunks := (n + c - 1) / c
	s := &SELL{
		Rows: n, Cols: a.Cols, C: c, Sigma: sigma,
		ChunkPtr:   make([]int64, nChunks+1),
		ChunkWidth: make([]int32, nChunks),
		Perm:       perm,
	}
	for ch := 0; ch < nChunks; ch++ {
		w := 0
		for r := ch * c; r < (ch+1)*c && r < n; r++ {
			if l := a.RowNNZ(int(perm[r])); l > w {
				w = l
			}
		}
		s.ChunkWidth[ch] = int32(w)
		s.ChunkPtr[ch+1] = s.ChunkPtr[ch] + int64(w*c)
	}
	total := s.ChunkPtr[nChunks]
	s.ColIdx = make([]int32, total)
	s.Val = make([]float64, total)
	for ch := 0; ch < nChunks; ch++ {
		base := s.ChunkPtr[ch]
		w := int(s.ChunkWidth[ch])
		for lane := 0; lane < c; lane++ {
			r := ch*c + lane
			if r >= n {
				continue
			}
			cols, vals := a.Row(int(perm[r]))
			for k := 0; k < w; k++ {
				idx := base + int64(k*c+lane)
				if k < len(cols) {
					s.ColIdx[idx] = cols[k]
					s.Val[idx] = vals[k]
				}
			}
		}
	}
	return s
}

// CountSELLSlots returns the slots (nonzeros plus padding) ToSELL(a, c,
// sigma) would store, without converting a: ToSELL pads a chunk to its
// widest row, and sorts each sigma window longest row first, so chunk k
// of a window is as wide as the window's (k*c)-th longest row. Without
// sorting (sigma <= 1) each chunk is its own window.
func CountSELLSlots(a *CSR, c, sigma int) (slots int64) {
	if c <= 0 {
		panic("sparse: SELL chunk height must be positive")
	}
	win := max(c, (sigma+c-1)/c*c) // ToSELL's window: whole chunks, one if unsorted
	lens := make([]int, win)
	for w := 0; w < a.Rows; w += win {
		l := lens[:min(win, a.Rows-w)]
		for i := range l {
			l[i] = a.RowNNZ(w + i)
		}
		sort.Ints(l)
		for k := len(l) - 1; k >= 0; k -= c {
			slots += int64(c * l[k])
		}
	}
	return slots
}

// WithValues builds a new SELL holding a's values in s's layout. All
// structure arrays (ChunkPtr, ChunkWidth, ColIdx, Perm) are shared
// with the receiver; only Val is freshly allocated and refilled, with
// padding slots left zero. a must have the structure s was built from;
// the caller verifies that. The receiver is not modified.
func (s *SELL) WithValues(a *CSR) *SELL {
	ns := *s
	ns.Val = make([]float64, len(s.Val))
	c := s.C
	for ch := 0; ch*c < s.Rows; ch++ {
		base := s.ChunkPtr[ch]
		for lane := 0; lane < c; lane++ {
			r := ch*c + lane
			if r >= s.Rows {
				continue
			}
			_, vals := a.Row(int(s.Perm[r]))
			for k := range vals {
				ns.Val[base+int64(k*c+lane)] = vals[k]
			}
		}
	}
	return &ns
}

// SpMV computes y = S*x with results in original row order.
func (s *SELL) SpMV(x, y []float64) {
	if len(x) < s.Cols || len(y) < s.Rows {
		panic("sparse: SELL SpMV dimension mismatch")
	}
	s.SpMVRange(x, y, 0, s.Rows)
}

// SpMVRange computes the storage-row range [lo, hi) of y = S*x. The
// range addresses storage rows (the sigma-sorted order the chunks are
// laid out in); results scatter through Perm back to original row
// positions, so distinct storage ranges write distinct y entries and
// row-parallel workers can partition storage rows without write
// conflicts. Chunk-aligned bounds (multiples of C) keep each worker's
// chunks private; unaligned bounds are still handled correctly.
func (s *SELL) SpMVRange(x, y []float64, lo, hi int) {
	n := s.Rows
	if hi > n {
		hi = n
	}
	if lo < 0 {
		lo = 0
	}
	c := s.C
	for ch := lo / c; ch*c < hi; ch++ {
		base := s.ChunkPtr[ch]
		w := int(s.ChunkWidth[ch])
		laneLo := 0
		if ch*c < lo {
			laneLo = lo - ch*c
		}
		laneHi := c
		if ch*c+laneHi > hi {
			laneHi = hi - ch*c
		}
		for lane := laneLo; lane < laneHi; lane++ {
			sum := 0.0
			for k := 0; k < w; k++ {
				idx := base + int64(k*c+lane)
				sum += s.Val[idx] * x[s.ColIdx[idx]]
			}
			y[s.Perm[ch*c+lane]] = sum
		}
	}
}

// SpMM computes Y = S*X for nv dense vectors in the row-major block
// layout of sparse.SpMM (X[i*nv+c] is component c at row i), with
// results in original row order.
func (s *SELL) SpMM(x, y []float64, nv int) {
	if nv < 1 {
		panic("sparse: SELL SpMM needs nv >= 1")
	}
	if len(x) < s.Cols*nv || len(y) < s.Rows*nv {
		panic("sparse: SELL SpMM dimension mismatch")
	}
	s.SpMMRange(x, y, nv, 0, s.Rows)
}

// SpMMRange computes the storage-row range [lo, hi) of Y = S*X in the
// row-major block layout; see SpMVRange for the storage-row contract.
func (s *SELL) SpMMRange(x, y []float64, nv, lo, hi int) {
	n := s.Rows
	if hi > n {
		hi = n
	}
	if lo < 0 {
		lo = 0
	}
	c := s.C
	for ch := lo / c; ch*c < hi; ch++ {
		base := s.ChunkPtr[ch]
		w := int(s.ChunkWidth[ch])
		laneLo := 0
		if ch*c < lo {
			laneLo = lo - ch*c
		}
		laneHi := c
		if ch*c+laneHi > hi {
			laneHi = hi - ch*c
		}
		for lane := laneLo; lane < laneHi; lane++ {
			row := int(s.Perm[ch*c+lane]) * nv
			yi := y[row : row+nv : row+nv]
			for v := range yi {
				yi[v] = 0
			}
			for k := 0; k < w; k++ {
				idx := base + int64(k*c+lane)
				val := s.Val[idx]
				xv := x[int(s.ColIdx[idx])*nv : int(s.ColIdx[idx])*nv+nv]
				for v := range yi {
					yi[v] += val * xv[v]
				}
			}
		}
	}
}

// MemoryBytes returns the storage footprint including padding and the
// row permutation.
func (s *SELL) MemoryBytes() int64 {
	return int64(len(s.ColIdx))*4 + int64(len(s.Val))*8 +
		int64(len(s.ChunkPtr))*8 + int64(len(s.ChunkWidth))*4 + int64(len(s.Perm))*4
}

// PaddingRatio returns stored slots / nnz (1.0 = no padding).
func (s *SELL) PaddingRatio() float64 {
	nnz := int64(0)
	for i := range s.Val {
		if s.Val[i] != 0 || s.ColIdx[i] != 0 {
			nnz++
		}
	}
	if nnz == 0 {
		return 1
	}
	return float64(len(s.Val)) / float64(nnz)
}
