package core

import "fbmpk/internal/sparse"

// OSKI-style backend selection, split as OSKI splits it (arXiv
// 1203.2739): an off-line profile of what one SpMV costs per stored entry
// and per stored row in each format on the machine (backendCosts), and
// an on-line census of what a matrix would store in each. At NewPlan time
// (BackendAuto) the census counts, over a bounded, deterministic row
// sample of the execution-order matrix, the entries CSR and BSR store
// (BSR fill included) and their rows (block rows for BSR); the table
// prices them, and BSR wins only at tuneMargin of CSR's price or below.
// Nothing is timed: the verdict is a pure function of the matrix
// structure, so an Auto plan is the forced plan of the format it names,
// bit for bit, and there is nothing to cache or replay.

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
	// tuneMargin is the fraction of CSR's price BSR must reach to win:
	// the table's two terms do not see the gather locality a format
	// changes, so a near tie stays with CSR.
	tuneMargin = 0.90
	// profileMinRowEntries is the entries a row of BenchmarkBackendProfile's
	// shortest bed: autotune keeps a sample with fewer on CSR.
	profileMinRowEntries = 12
)

// backendCost is one row of the off-line profile: a format's SpMV time
// per stored entry and per stored row.
type backendCost struct {
	kind           BackendKind
	block          int // BSR block size; 0 for CSR
	nsEntry, nsRow float64
}

// backendCosts is the off-line profile of the reference host (2 vCPUs,
// 8 GB), one row per format configuration a forced backend builds: the
// medians of what BenchmarkBackendProfile (bench_test.go, -benchtime 20x)
// printed in 13 separate processes, unedited. DESIGN.md §10 lists the
// runs. The fit is linear in entries and rows over beds of 12 and 108
// entries a row, so its intercepts are not costs a row can have: below
// the profiled rows autotune does not price at all.
var backendCosts = [...]backendCost{
	{BackendCSR, 0, 1.683, 2.891},
	{BackendBSR, 2, 1.782, 2.311},
	{BackendBSR, 3, 1.471, 3.258},
	{BackendBSR, 4, 1.363, 4.39},
}

// TuneCandidate is one format configuration the census priced.
type TuneCandidate struct {
	Backend BackendKind `json:"backend"`
	Block   int         `json:"block,omitempty"`
	// Stored counts the entries the format stores of the sample: its
	// nonzeros, plus BSR fill.
	Stored int64 `json:"stored"`
	// Rows counts the rows it stores: block rows for BSR.
	Rows int `json:"rows"`
	// PriceNs is Stored and Rows priced by the format's backendCosts row:
	// the modeled time of one SpMV of the sample.
	PriceNs float64 `json:"price_ns"`
	// Winner marks the selected candidate.
	Winner bool `json:"winner,omitempty"`
}

// TuneDecision is BackendAuto's verdict for one matrix structure.
type TuneDecision struct {
	Backend BackendKind `json:"backend"`
	Block   int         `json:"block,omitempty"`
	// SampleRows is the number of rows the census counted.
	SampleRows int `json:"sample_rows"`
	// Candidates are CSR and BSR at DetectBSRBlock's size, in that
	// order: exactly what the forced backends build.
	Candidates []TuneCandidate `json:"candidates"`
}

// bsrCandidate counts what BSR stores of the stripes of a sample, fill
// included, at the block size in {2, 3, 4} with the fewest modeled bytes
// per SpMV: blocks stream densely with one index each, plus a pointer a
// block row (the result write is alike at every size). A stripe's blocks
// of all three sizes are counted in one pass.
func bsrCandidate(sample []*sparse.CSR) (best TuneCandidate) {
	var cands [3]TuneCandidate
	for _, s := range sample {
		blocks := sparse.CountBSRBlocks(s)
		for i := range cands {
			r := i + 2
			cands[i].Block = r
			cands[i].Stored += blocks[i] * int64(r*r)
			cands[i].Rows += (s.Rows + r - 1) / r
		}
	}
	bytes := func(c TuneCandidate) int64 { return 8*c.Stored + 4*c.Stored/int64(c.Block*c.Block) + 8*int64(c.Rows) }
	for i, c := range cands {
		if i == 0 || bytes(c) < bytes(best) {
			best = c
		}
	}
	best.Backend = BackendBSR
	return best
}

// DetectBSRBlock picks the block size in {2, 3, 4} with the fewest
// modeled bytes per SpMV on tuneSample(a) — the structure-only detector
// that sizes a forced BackendBSR and BackendAuto's BSR candidate alike.
// FEM matrices with d degrees of freedom per node have near-perfect
// d x d blocks, which the fill-aware count identifies without measuring.
func DetectBSRBlock(a *sparse.CSR) int {
	return bsrCandidate(tuneSample(a)).Block
}

// tuneSample returns the census sample of a: a itself when it has at
// most tuneSampleRows rows, otherwise tuneStripes stripes of
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

// autotune is BackendAuto's verdict for the execution-order matrix a:
// the census of CSR and BSR at DetectBSRBlock's size on tuneSample(a),
// and BSR if it prices at tuneMargin of CSR's price or below, else CSR.
// A sample with fewer entries a row than the profile's shortest bed
// stays on CSR: the table is a fit over the profiled rows, and below
// them its intercepts price rows it never saw. Nor does an empty sample,
// which both formats price at 0, leave CSR.
func autotune(a *sparse.CSR) TuneDecision {
	sample := tuneSample(a)
	csr := TuneCandidate{Backend: BackendCSR}
	for _, s := range sample {
		csr.Stored += s.NNZ()
		csr.Rows += s.Rows
	}
	cands := []TuneCandidate{csr, bsrCandidate(sample)}
	for i, c := range cands {
		for _, row := range backendCosts {
			if row.kind == c.Backend && row.block == c.Block {
				cands[i].PriceNs = float64(c.Stored)*row.nsEntry + float64(c.Rows)*row.nsRow
			}
		}
	}
	winner := 0
	if bsr := cands[1].PriceNs; csr.Stored >= profileMinRowEntries*int64(csr.Rows) && bsr > 0 && bsr <= tuneMargin*cands[0].PriceNs {
		winner = 1
	}
	cands[winner].Winner = true
	return TuneDecision{Backend: cands[winner].Backend, Block: cands[winner].Block, SampleRows: csr.Rows, Candidates: cands}
}
