package core

import (
	"encoding/json"
	"fmt"
	"time"

	"fbmpk/internal/parallel"
	"fbmpk/internal/sparse"
)

// BackendKind selects the storage format of the full-matrix SpMV/SpMM
// execution backend — the kernels behind the standard engine, single
// vector and block (SpMM) alike. No other engine has one: the
// forward-backward sweeps run on the L+D+U split CSR, whose
// Gauss-Seidel-style dependency structure is incompatible with SELL's
// row sorting and BSR's blocking, and the level-blocked steps on the raw
// level-ordered CSR (see Options.Canonical).
type BackendKind int

const (
	// BackendCSR keeps the split-CSR baseline kernels (the default).
	// CSR results are bitwise-stable across plan rebuilds, which is why
	// it stays the zero value: opting into another backend (or the
	// autotuner) changes the in-row summation order, so results match
	// CSR to rounding (<= 1e-12 relative) rather than bitwise.
	BackendCSR BackendKind = iota
	// BackendAuto lets the plan's autotuner pick the format per matrix
	// by modeled-plus-measured bytes per nonzero; see Autotune.
	BackendAuto
	// BackendSELL forces the SELL-C-sigma backend (chunked column-major
	// storage with sigma-window row sorting).
	BackendSELL
	// BackendBSR forces the block-CSR backend (R x R dense blocks, with
	// a structure-based block-size detector when no size is forced).
	BackendBSR
	numBackends
)

var backendNames = [numBackends]string{
	BackendCSR:  "csr",
	BackendAuto: "auto",
	BackendSELL: "sell",
	BackendBSR:  "bsr",
}

func (k BackendKind) String() string {
	if k >= 0 && k < numBackends {
		return backendNames[k]
	}
	return fmt.Sprintf("Backend(%d)", int(k))
}

// MarshalJSON renders the kind as its name, keeping tuner verdicts
// human-readable.
func (k BackendKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// ParseBackend maps a backend name ("csr", "auto", "sell", "bsr") to
// its kind; used by command-line flags.
func ParseBackend(s string) (BackendKind, error) {
	for k, name := range backendNames {
		if s == name {
			return BackendKind(k), nil
		}
	}
	return BackendCSR, fmt.Errorf("core: unknown backend %q (have csr, auto, sell, bsr)", s)
}

// execBackend abstracts the full-matrix kernels over the storage
// format, so the standard serial/parallel/batched drivers stay
// format-agnostic. Range bounds follow each backend's partition
// contract: partition returns worker row bounds aligned to the
// format's storage granularity (any row for CSR, chunk-aligned storage
// rows for SELL, block-row-aligned rows for BSR), and spmvRange of
// disjoint ranges writes disjoint y entries.
type execBackend interface {
	kind() BackendKind
	phase() phase
	rows() int
	cols() int
	partition(parts int) []int
	spmvRange(x, y []float64, lo, hi int)
	spmm(x, y []float64, nv int)
	// withValues builds a backend holding a's values in the receiver's
	// layout, sharing every structure array (a must be the new
	// execution-order matrix with the structure the receiver was built
	// from). The receiver is not modified — UpdateValues publishes the
	// result as a new epoch while old-epoch readers keep the original.
	withValues(a *sparse.CSR) execBackend
}

// csrBackend is the baseline: it delegates to the tuned sparse CSR
// kernels on the plan's execution-order matrix (zero extra storage).
type csrBackend struct{ a *sparse.CSR }

func (b csrBackend) kind() BackendKind { return BackendCSR }
func (b csrBackend) phase() phase      { return phaseStandard }
func (b csrBackend) rows() int         { return b.a.Rows }
func (b csrBackend) cols() int         { return b.a.Cols }
func (b csrBackend) partition(parts int) []int {
	return parallel.PartitionByPtr(b.a.Rows, parts, b.a.RowPtr)
}
func (b csrBackend) spmvRange(x, y []float64, lo, hi int) { sparse.SpMVRange(b.a, x, y, lo, hi) }
func (b csrBackend) spmm(x, y []float64, nv int)          { sparse.SpMM(b.a, x, y, nv) }
func (b csrBackend) withValues(a *sparse.CSR) execBackend { return csrBackend{a: a} }

// sellBackend executes on a SELL-C-sigma conversion of the plan's
// execution-order matrix. Ranges address storage rows (the sigma-
// sorted order); the format's internal permutation scatters results
// back, so the backend is transparent to callers. Built from the
// already-ABMC-permuted matrix, the sigma sort composes with the ABMC
// ordering instead of fighting it.
type sellBackend struct{ s *sparse.SELL }

func (b *sellBackend) kind() BackendKind { return BackendSELL }
func (b *sellBackend) phase() phase      { return phaseStandardSELL }
func (b *sellBackend) rows() int         { return b.s.Rows }
func (b *sellBackend) cols() int         { return b.s.Cols }
func (b *sellBackend) partition(parts int) []int {
	// Weight chunks by their padded storage (the slots the kernel
	// actually streams), then convert chunk bounds to storage rows.
	nc := len(b.s.ChunkWidth)
	cb := parallel.PartitionRows(nc, parts, func(ch int) int64 {
		return b.s.ChunkPtr[ch+1] - b.s.ChunkPtr[ch]
	})
	bounds := make([]int, len(cb))
	for i, ch := range cb {
		r := ch * b.s.C
		if r > b.s.Rows {
			r = b.s.Rows
		}
		bounds[i] = r
	}
	bounds[len(bounds)-1] = b.s.Rows
	return bounds
}
func (b *sellBackend) spmvRange(x, y []float64, lo, hi int) { b.s.SpMVRange(x, y, lo, hi) }
func (b *sellBackend) spmm(x, y []float64, nv int)          { b.s.SpMM(x, y, nv) }
func (b *sellBackend) withValues(a *sparse.CSR) execBackend {
	return &sellBackend{s: b.s.WithValues(a)}
}

// bsrBackend executes on a block-CSR conversion of the plan's
// execution-order matrix.
type bsrBackend struct{ b *sparse.BSR }

func (e *bsrBackend) kind() BackendKind { return BackendBSR }
func (e *bsrBackend) phase() phase      { return phaseStandardBSR }
func (e *bsrBackend) rows() int         { return e.b.Rows }
func (e *bsrBackend) cols() int         { return e.b.Cols }
func (e *bsrBackend) partition(parts int) []int {
	// Weight block rows by stored blocks, then scale to scalar rows so
	// every boundary is block-row-aligned.
	br := e.b.BRows
	bb := parallel.PartitionRows(br, parts, func(i int) int64 {
		return e.b.RowPtr[i+1] - e.b.RowPtr[i]
	})
	bounds := make([]int, len(bb))
	for i, blk := range bb {
		r := blk * e.b.R
		if r > e.b.Rows {
			r = e.b.Rows
		}
		bounds[i] = r
	}
	bounds[len(bounds)-1] = e.b.Rows
	return bounds
}
func (e *bsrBackend) spmvRange(x, y []float64, lo, hi int) { e.b.SpMVRange(x, y, lo, hi) }
func (e *bsrBackend) spmm(x, y []float64, nv int)          { e.b.SpMM(x, y, nv) }
func (e *bsrBackend) withValues(a *sparse.CSR) execBackend {
	return &bsrBackend{b: e.b.WithValues(a)}
}

// buildBackend materializes the execution backend a decision names,
// converting the execution-order matrix when the format is not CSR.
func buildBackend(a *sparse.CSR, dec TuneDecision) execBackend {
	switch dec.Backend {
	case BackendSELL:
		return &sellBackend{s: sparse.ToSELL(a, dec.Chunk, dec.Sigma)}
	case BackendBSR:
		return &bsrBackend{b: sparse.ToBSR(a, dec.Block, dec.Block)}
	default:
		return csrBackend{a: a}
	}
}

// initBackend resolves the standard engine's execution backend from the
// canonical options and the execution-order matrix a: the forced formats
// build directly (SELL at the default chunk and window, BSR at the block
// size the structure suggests), BackendAuto replays an injected registry
// verdict or runs the autotuner, and the default CSR wraps a with zero
// extra storage.
func (p *Plan) initBackend(opt Options, a *sparse.CSR) (execBackend, error) {
	start := time.Now()
	var dec TuneDecision
	switch opt.Backend {
	case BackendCSR:
		dec = TuneDecision{Backend: BackendCSR}
	case BackendSELL:
		dec = TuneDecision{Backend: BackendSELL, Chunk: DefaultSELLChunk, Sigma: DefaultSELLSigma}
	case BackendBSR:
		dec = TuneDecision{Backend: BackendBSR, Block: DetectBSRBlock(a)}
	case BackendAuto:
		if opt.tuned != nil {
			dec = *opt.tuned
			dec.FromCache = true
			dec.Samples = 0
		} else {
			dec = Autotune(a)
		}
		p.stats.Tune = &dec
	default:
		return nil, fmt.Errorf("core: NewPlan: unknown backend kind %d: %w", int(opt.Backend), ErrBadBackend)
	}
	be := buildBackend(a, dec)
	p.stats.Backend = dec.Backend.String()
	p.stats.TuneTime = time.Since(start)
	return be, nil
}

// Backend returns the storage format the plan's kernels execute on; see
// PlanStats.Backend.
func (p *Plan) Backend() string { return p.stats.Backend }
