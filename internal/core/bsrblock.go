package core

import "fbmpk/internal/sparse"

// The BSR block-size detector: a structure-only count of what ToBSR
// would store at each candidate block size, over a bounded,
// deterministic row sample. Nothing is timed, so the size is a pure
// function of the matrix structure.

const (
	// tuneSampleRows bounds the sample: matrices at most this tall are
	// counted whole, larger ones via tuneStripes aligned stripes of
	// tuneStripeRows rows each.
	tuneSampleRows = 4096
	tuneStripes    = 4
	// tuneStripeRows is a multiple of tuneAlign, so a stripe is whole
	// block rows of every candidate block size.
	tuneStripeRows = 1020
	// tuneAlign aligns stripe starts down to a common multiple of the
	// candidate block sizes (lcm of 2, 3, 4) so BSR block phase in the
	// sample matches the full matrix.
	tuneAlign = 12
)

// DetectBSRBlock picks the block size in {2, 3, 4} with the fewest
// modeled bytes per SpMV on tuneSample(a), fill included: blocks stream
// densely with one index each, plus a pointer a block row (the result
// write is alike at every size). A stripe's blocks of all three sizes
// are counted in one pass, at index r-2 for size r. FEM matrices with d
// degrees of freedom per node have near-perfect d x d blocks, which the
// fill-aware count identifies without measuring.
func DetectBSRBlock(a *sparse.CSR) int {
	var blocks, rows [3]int64
	for _, s := range tuneSample(a) {
		n := sparse.CountBSRBlocks(s)
		for i := range n {
			blocks[i] += n[i]
			rows[i] += int64((s.Rows + i + 1) / (i + 2))
		}
	}
	best, bestBytes := 0, int64(0)
	for i, nb := range blocks {
		r := int64(i + 2)
		if bytes := 8*nb*r*r + 4*nb + 8*rows[i]; i == 0 || bytes < bestBytes {
			best, bestBytes = i, bytes
		}
	}
	return best + 2
}

// tuneSample returns the detector's sample of a: a itself when it has
// at most tuneSampleRows rows, otherwise tuneStripes stripes of
// tuneStripeRows rows starting at evenly spaced, tuneAlign-aligned
// offsets, each a structure-only CSR over a's column space that shares
// a's column indices. Stripes are whole block rows of every candidate
// block size, so BSR blocks fall in them as they do in a. Row selection
// is a pure function of the matrix shape.
func tuneSample(a *sparse.CSR) []*sparse.CSR {
	if a.Rows <= tuneSampleRows {
		return []*sparse.CSR{a}
	}
	var out []*sparse.CSR
	prevHi := 0
	for i := 0; i < tuneStripes; i++ {
		lo := i * a.Rows / tuneStripes
		lo -= lo % tuneAlign
		lo = max(lo, prevHi)
		hi := min(lo+tuneStripeRows, a.Rows)
		if lo >= hi {
			continue
		}
		rowPtr := make([]int64, hi-lo+1)
		for r := range rowPtr {
			rowPtr[r] = a.RowPtr[lo+r] - a.RowPtr[lo]
		}
		out = append(out, &sparse.CSR{Rows: hi - lo, Cols: a.Cols, RowPtr: rowPtr, ColIdx: a.ColIdx[a.RowPtr[lo]:a.RowPtr[hi]]})
		prevHi = hi
	}
	return out
}
