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
