package core

import (
	"time"

	"fbmpk/internal/sparse"
)

// OSKI-style backend autotuner. At NewPlan time (BackendAuto) the
// tuner extracts a bounded, deterministic row sample of the
// execution-order matrix, models the memory traffic per nonzero of
// each candidate format, prunes candidates the model already rules
// out, micro-benchmarks the survivors on the sample, and picks the
// winner by measured time with a safety margin: a non-CSR format must
// beat CSR by tuneMargin on the sample to be selected, because the
// sample flatters formats with conversion costs the model does not
// see. The decision is recorded in PlanStats and cacheable in the
// registry keyed by the matrix structure and plan options, so the
// second Acquire of the same (structure, options) skips sampling.
//
// Determinism: candidate order, the sampled rows, and the probe vector
// are all fixed functions of the matrix structure (no math/rand, no
// wall-clock seeding) — time.Now is used only to measure durations.
// Measured times do vary run to run, which is why the margin exists;
// the *executed result* of any decision is identical for a given
// backend config, so cached-vs-fresh plans with the same verdict are
// bitwise identical.

const (
	// DefaultSELLChunk is the SELL-C-sigma chunk height of a forced
	// BackendSELL and the tuner's first SELL candidate: 8 rows matches
	// the widest SIMD lane count the flat kernels target while keeping
	// padding modest.
	DefaultSELLChunk = 8
	// DefaultSELLSigma is the sigma sorting window that goes with it:
	// wide enough to squeeze padding on irregular degree distributions,
	// narrow enough to keep the sort local to the ABMC block structure.
	DefaultSELLSigma = 256

	// tuneSampleRows bounds the sample: matrices at most this tall are
	// measured whole, larger ones via tuneStripes aligned stripes of
	// tuneStripeRows rows each.
	tuneSampleRows = 4096
	tuneStripes    = 4
	// tuneStripeRows is a multiple of tuneAlign so stacked stripes
	// preserve the block phase of every candidate block size end to
	// end, not just at stripe starts.
	tuneStripeRows = 1020
	// tuneAlign aligns stripe starts down to a common multiple of the
	// candidate block sizes (lcm of 2, 3, 4) so BSR block phase in the
	// sample matches the full matrix.
	tuneAlign = 12
	// tuneReps measures each surviving candidate this many times and
	// keeps the minimum (min-of-reps rejects scheduler noise).
	tuneReps = 5
	// tuneMargin is the fraction of CSR's sample time a non-CSR
	// candidate must beat to win.
	tuneMargin = 0.90
	// tunePruneSlack keeps a candidate for measurement only when its
	// modeled bytes/nnz is within this factor of CSR's.
	tunePruneSlack = 1.05
)

// TuneCandidate is one (format, config) the autotuner considered.
type TuneCandidate struct {
	Backend BackendKind `json:"backend"`
	Chunk   int         `json:"chunk,omitempty"`
	Sigma   int         `json:"sigma,omitempty"`
	Block   int         `json:"block,omitempty"`
	// ModelBytesPerNNZ is the modeled memory traffic of one SpMV in
	// bytes per logical nonzero (matrix storage + result write;
	// x-vector gather traffic is format-independent and omitted).
	ModelBytesPerNNZ float64 `json:"model_bytes_per_nnz"`
	// SampleNs is the minimum measured SpMV time on the row sample
	// (0 when the candidate was pruned before measurement).
	SampleNs int64 `json:"sample_ns,omitempty"`
	// GBps is the modeled traffic of the sample divided by SampleNs —
	// the effective bandwidth the candidate sustained on the sample.
	GBps float64 `json:"gbps,omitempty"`
	// Pruned marks candidates rejected by the model without
	// measurement.
	Pruned bool `json:"pruned,omitempty"`
	// Winner marks the selected candidate.
	Winner bool `json:"winner,omitempty"`
}

// TuneDecision is the autotuner's verdict for one matrix structure.
type TuneDecision struct {
	Backend BackendKind `json:"backend"`
	Chunk   int         `json:"chunk,omitempty"`
	Sigma   int         `json:"sigma,omitempty"`
	Block   int         `json:"block,omitempty"`
	// Samples counts the micro-benchmark kernel invocations this
	// decision cost (0 when served from the registry verdict cache).
	Samples int `json:"samples"`
	// SampleRows is the number of rows in the measurement sample.
	SampleRows int `json:"sample_rows"`
	// FromCache marks a decision replayed from the registry instead of
	// tuned fresh.
	FromCache bool `json:"from_cache,omitempty"`
	// Candidates is the full table the decision was made from, in the
	// fixed evaluation order.
	Candidates []TuneCandidate `json:"candidates,omitempty"`
}

// csrModelBytesPerNNZ models one CSR SpMV: 12 bytes per stored entry
// (8 value + 4 column index), the row pointer stream, and the result
// write.
func csrModelBytesPerNNZ(rows int, nnz int64) float64 {
	if nnz == 0 {
		return 0
	}
	return float64(12*nnz+8*int64(rows+1)+8*int64(rows)) / float64(nnz)
}

// sellModelBytesPerNNZ models one SELL-C-sigma SpMV from the padded
// slot count: every slot streams value + index, plus chunk metadata,
// the scatter permutation, and the result write.
func sellModelBytesPerNNZ(rows int, nnz, slots int64, nChunks int) float64 {
	if nnz == 0 {
		return 0
	}
	bytes := 12*slots + 8*int64(nChunks+1) + 4*int64(nChunks) + 4*int64(rows) + 8*int64(rows)
	return float64(bytes) / float64(nnz)
}

// bsrModelBytesPerNNZ models one BSR SpMV from the stored block count:
// blocks stream densely (zero fill included), one index per block,
// plus the block-row pointers and the result write.
func bsrModelBytesPerNNZ(rows int, nnz, nnzb int64, r int) float64 {
	if nnz == 0 {
		return 0
	}
	bRows := (rows + r - 1) / r
	bytes := 8*nnzb*int64(r*r) + 4*nnzb + 8*int64(bRows+1) + 8*int64(rows)
	return float64(bytes) / float64(nnz)
}

// DetectBSRBlock picks the block size in {2, 3, 4} with the lowest
// modeled bytes/nnz for matrix a — the structure-only detector that
// sizes a forced BackendBSR. FEM
// matrices with d degrees of freedom per node have near-perfect d x d
// blocks, which the fill-aware model identifies without measurement.
func DetectBSRBlock(a *sparse.CSR) int {
	best, bestModel := 2, 0.0
	nnz := a.NNZ()
	for _, r := range []int{2, 3, 4} {
		nnzb := sparse.CountBSRBlocks(a, r, r)
		m := bsrModelBytesPerNNZ(a.Rows, nnz, nnzb, r)
		if bestModel == 0 || m < bestModel {
			best, bestModel = r, m
		}
	}
	return best
}

// tuneSample extracts the measurement sample: the whole matrix when it
// has at most tuneSampleRows rows, otherwise tuneStripes stripes of
// tuneStripeRows rows starting at evenly spaced, tuneAlign-aligned
// offsets. The stripes are stacked into a fresh CSR sharing the
// original column space (so the probe vector exercises the real
// column-access pattern). Row selection is a pure function of the
// matrix shape.
func tuneSample(a *sparse.CSR) *sparse.CSR {
	if a.Rows <= tuneSampleRows {
		return a
	}
	type stripe struct{ lo, hi int }
	stripes := make([]stripe, 0, tuneStripes)
	prevHi := 0
	for i := 0; i < tuneStripes; i++ {
		lo := i * a.Rows / tuneStripes
		lo -= lo % tuneAlign
		if lo < prevHi {
			lo = prevHi
		}
		hi := lo + tuneStripeRows
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			continue
		}
		stripes = append(stripes, stripe{lo, hi})
		prevHi = hi
	}
	rows := 0
	var nnz int64
	for _, s := range stripes {
		rows += s.hi - s.lo
		nnz += a.RowPtr[s.hi] - a.RowPtr[s.lo]
	}
	out := &sparse.CSR{
		Rows:   rows,
		Cols:   a.Cols,
		RowPtr: make([]int64, rows+1),
		ColIdx: make([]int32, nnz),
		Val:    make([]float64, nnz),
	}
	r, w := 0, int64(0)
	for _, s := range stripes {
		lo, hi := a.RowPtr[s.lo], a.RowPtr[s.hi]
		copy(out.ColIdx[w:], a.ColIdx[lo:hi])
		copy(out.Val[w:], a.Val[lo:hi])
		for i := s.lo; i < s.hi; i++ {
			out.RowPtr[r+1] = out.RowPtr[r] + (a.RowPtr[i+1] - a.RowPtr[i])
			r++
		}
		w += hi - lo
	}
	return out
}

// splitmix64 advances the splitmix64 generator — the tuner's only
// randomness source, fully determined by the seed.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// tuneVector fills a probe vector with deterministic values in
// (-1, 1).
func tuneVector(n int, seed uint64) []float64 {
	x := make([]float64, n)
	state := seed
	for i := range x {
		x[i] = float64(splitmix64(&state)>>11)/float64(1<<53)*2 - 1
	}
	return x
}

// measure runs kernel once to warm caches, then reps times, returning
// the minimum duration in nanoseconds.
func measure(reps int, kernel func()) int64 {
	kernel()
	best := int64(0)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		kernel()
		if d := time.Since(start).Nanoseconds(); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// autotune runs the backend selection for the execution-order matrix a
// of a standard-engine BackendAuto plan that was given no verdict to
// replay, and returns the decision with its full candidate table
// (PlanStats.Tune).
func autotune(a *sparse.CSR) TuneDecision {
	s := tuneSample(a)
	nnz := s.NNZ()
	x := tuneVector(s.Cols, uint64(a.Rows)<<32^uint64(a.NNZ()))
	y := make([]float64, s.Rows)

	dec := TuneDecision{Backend: BackendCSR, SampleRows: s.Rows}
	csrModel := csrModelBytesPerNNZ(s.Rows, nnz)

	// CSR is always measured: it is the baseline every margin is
	// relative to.
	csrNs := measure(tuneReps, func() { sparse.SpMV(s, x, y) })
	dec.Samples += tuneReps + 1
	cands := []TuneCandidate{{
		Backend:          BackendCSR,
		ModelBytesPerNNZ: csrModel,
		SampleNs:         csrNs,
		GBps:             gbps(csrModel, nnz, csrNs),
	}}

	// SELL-C-sigma configurations, fixed order.
	for _, cfg := range [][2]int{{DefaultSELLChunk, DefaultSELLSigma}, {16, 512}} {
		sl := sparse.ToSELL(s, cfg[0], cfg[1])
		model := sellModelBytesPerNNZ(s.Rows, nnz, int64(len(sl.Val)), len(sl.ChunkWidth))
		c := TuneCandidate{Backend: BackendSELL, Chunk: cfg[0], Sigma: cfg[1], ModelBytesPerNNZ: model}
		if model > csrModel*tunePruneSlack {
			c.Pruned = true
		} else {
			c.SampleNs = measure(tuneReps, func() { sl.SpMV(x, y) })
			c.GBps = gbps(model, nnz, c.SampleNs)
			dec.Samples += tuneReps + 1
		}
		cands = append(cands, c)
	}

	// BSR: model all block sizes, measure only the best-modeled one —
	// conversion dominates the tuning cost, and the model separates
	// block sizes reliably (fill ratio is structural, not timing).
	bestR, bestModel := 0, 0.0
	for _, r := range []int{2, 3, 4} {
		nnzb := sparse.CountBSRBlocks(s, r, r)
		model := bsrModelBytesPerNNZ(s.Rows, nnz, nnzb, r)
		cands = append(cands, TuneCandidate{Backend: BackendBSR, Block: r, ModelBytesPerNNZ: model, Pruned: true})
		if bestModel == 0 || model < bestModel {
			bestR, bestModel = r, model
		}
	}
	if bestModel <= csrModel*tunePruneSlack {
		for i := range cands {
			if cands[i].Backend == BackendBSR && cands[i].Block == bestR {
				b := sparse.ToBSR(s, bestR, bestR)
				cands[i].Pruned = false
				cands[i].SampleNs = measure(tuneReps, func() { b.SpMV(x, y) })
				cands[i].GBps = gbps(bestModel, nnz, cands[i].SampleNs)
				dec.Samples += tuneReps + 1
			}
		}
	}

	// Pick: best measured non-CSR candidate, accepted only if it beats
	// CSR by the margin; ties and losses fall back to CSR.
	winner := 0
	bestNs := int64(float64(csrNs) * tuneMargin)
	for i := 1; i < len(cands); i++ {
		if !cands[i].Pruned && cands[i].SampleNs > 0 && cands[i].SampleNs < bestNs {
			winner, bestNs = i, cands[i].SampleNs
		}
	}
	cands[winner].Winner = true
	dec.Backend = cands[winner].Backend
	dec.Chunk = cands[winner].Chunk
	dec.Sigma = cands[winner].Sigma
	dec.Block = cands[winner].Block
	dec.Candidates = cands
	return dec
}

// gbps converts a modeled per-nnz traffic and a measured duration into
// effective bandwidth (GB/s).
func gbps(modelBytesPerNNZ float64, nnz int64, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return modelBytesPerNNZ * float64(nnz) / float64(ns)
}
