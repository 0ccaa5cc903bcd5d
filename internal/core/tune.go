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
// The EngineAuto rule lives here too — its traffic models, margins and
// rep counts (engineModel, EngineDecision.settle) — while the
// candidates it times are built and run by NewPlan (arbitrate, in
// plan.go) with the constructors a forced plan uses.
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

	// engineTuneMargin is the fraction of FBMPK's cost (modeled bytes or
	// measured time) level blocking must beat to win the EngineAuto
	// arbitration: LB pays k+1 live iterates and a skewed schedule, so a
	// marginal model win is not worth switching engines for.
	engineTuneMargin = 0.85
	// engineTuneReps times each candidate engine this many times
	// (min-of-reps), on top of one warm-up run.
	engineTuneReps = 3
	// engineTuneMeasureNNZ bounds the matrices the arbitration
	// micro-measures end to end; above it the k-power runs would
	// dominate NewPlan, so the decision falls back to the traffic model
	// alone (which is also where the model is most reliable: both
	// engines are DRAM-bound at that size).
	engineTuneMeasureNNZ = 4_000_000
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

// EngineDecision is the EngineAuto arbitration verdict: which MPK
// engine (forward-backward or level-blocked) a plan should execute
// with for one matrix structure at power K, with the modeled per-pass
// DRAM traffic and (when the matrix was small enough to measure) the
// times of the plan's own candidate engines behind the choice.
type EngineDecision struct {
	Engine Engine `json:"engine"`
	// K is the power the arbitration optimized for (DefaultTuneK); an
	// injected verdict taken at another power is not replayed.
	K int `json:"k"`
	// Threads is the worker count of the plan the verdict was taken for
	// (0 = serial): the tie-break times the candidates on the plan's own
	// pool, since barrier cost and scheduling overhead rank the engines
	// differently than the serial kernels do.
	Threads int `json:"threads,omitempty"`
	// NumLevels and NumBlocks describe the level schedule the
	// level-blocked candidate would execute.
	NumLevels int `json:"num_levels"`
	NumBlocks int `json:"num_blocks"`
	// FBModelBytes models the matrix bytes a k-power FBMPK pass streams
	// from DRAM ((k+1)/2 reads of A); LBModelBytes models the
	// level-blocked schedule's per-pass streamed footprint (each pass
	// reads the levels its skewed steps touch once).
	FBModelBytes int64 `json:"fb_model_bytes"`
	LBModelBytes int64 `json:"lb_model_bytes"`
	// FBSampleNs/LBSampleNs are the min-of-reps k-power times of the two
	// candidate engines (0 when the decision was model-only).
	FBSampleNs int64 `json:"fb_sample_ns,omitempty"`
	LBSampleNs int64 `json:"lb_sample_ns,omitempty"`
	// Samples counts the kernel invocations the arbitration cost (0
	// when model-only or replayed from the registry).
	Samples int `json:"samples"`
	// FromCache marks a verdict replayed from the registry.
	FromCache bool `json:"from_cache,omitempty"`
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

// engineModel is the model half of the EngineAuto rule for matrix a at
// power k: it models the DRAM traffic of both engines' k-power passes
// from a's level schedule ls and decides outright when the model is
// one-sided (level blocking modeled above tunePruneSlack × FB's bytes:
// FB) or the matrix is too large to time (above engineTuneMeasureNNZ:
// level blocking only below engineTuneMargin × FB's bytes). timed
// reports that neither holds, so the verdict waits for the timed
// tie-break (EngineDecision.settle). A pure function of the structure.
func engineModel(a *sparse.CSR, ls *levelSchedule, k int) (dec *EngineDecision, timed bool) {
	nl := ls.lp.NumLevels()
	dec = &EngineDecision{
		Engine:    EngineForwardBackward,
		K:         k,
		NumLevels: nl,
		NumBlocks: ls.numBlocks(),
	}

	// FB traffic model: the (k+1)/2-reads-of-A result, in bytes (12 per
	// stored entry). The triangle census is one O(nnz) scan — no Split.
	var nnzL, nnzU, nnzD int64
	for i := 0; i < a.Rows; i++ {
		for j := a.RowPtr[i]; j < a.RowPtr[i+1]; j++ {
			switch c := int(a.ColIdx[j]); {
			case c < i:
				nnzL++
			case c > i:
				nnzU++
			default:
				nnzD++
			}
		}
	}
	fwd, bwd := int64(k+1)/2, int64(k)/2
	dec.FBModelBytes = 12 * (nnzU + fwd*(nnzL+nnzD) + bwd*nnzU)

	// LB traffic model: every pass streams the union of the levels its
	// k skewed steps touch once (the block itself plus up to k-1 levels
	// of skewed tail); cache residency within the pass is the premise
	// the block budget enforces.
	levelNnz := make([]int64, nl+1)
	for l := 0; l < nl; l++ {
		var s int64
		for _, r := range ls.lp.Rows[ls.lp.LevelPtr[l]:ls.lp.LevelPtr[l+1]] {
			s += a.RowPtr[r+1] - a.RowPtr[r]
		}
		levelNnz[l+1] = levelNnz[l] + s
	}
	for b := 0; b <= ls.numBlocks(); b++ {
		bLo, bHi := ls.passBounds(b, k)
		lo := max(0, min(bLo-(k-1), nl))
		hi := min(bHi, nl)
		if lo < hi {
			dec.LBModelBytes += 12 * (levelNnz[hi] - levelNnz[lo])
		}
	}

	if dec.LBModelBytes > int64(float64(dec.FBModelBytes)*tunePruneSlack) {
		// The model already rules level blocking out (deep skew overlap
		// or too many tiny blocks): deterministic FB, nothing measured.
		return dec, false
	}
	if a.NNZ() > engineTuneMeasureNNZ {
		// Too large to run 2*(reps+1) k-power sweeps at build time;
		// trust the model with the engine margin.
		if float64(dec.LBModelBytes) < engineTuneMargin*float64(dec.FBModelBytes) {
			dec.Engine = EngineLevelBlocked
		}
		return dec, false
	}
	return dec, true
}

// settle is the measured half of the rule: given the min-of-reps times
// of both candidate engines (each timed by measure at engineTuneReps),
// level blocking wins only below engineTuneMargin × FB's time.
func (d *EngineDecision) settle(fbNs, lbNs int64) {
	d.FBSampleNs, d.LBSampleNs = fbNs, lbNs
	d.Samples = 2 * (engineTuneReps + 1)
	if float64(lbNs) < engineTuneMargin*float64(fbNs) {
		d.Engine = EngineLevelBlocked
	}
}

// gbps converts a modeled per-nnz traffic and a measured duration into
// effective bandwidth (GB/s).
func gbps(modelBytesPerNNZ float64, nnz int64, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return modelBytesPerNNZ * float64(nnz) / float64(ns)
}
