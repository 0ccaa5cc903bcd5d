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
	// by modeled-plus-measured bytes per nonzero (autotune, tune.go).
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
// format, so the standard engine's one driver stays format-agnostic.
// Range bounds follow each backend's partition contract: partition
// returns worker row bounds aligned to the format's storage granularity
// (any row for CSR, chunk-aligned storage rows for SELL, block-row-
// aligned rows for BSR), and spmmRange of disjoint ranges writes
// disjoint y entries. spmmRange at nv = 1 is the format's SpMV range
// kernel, so a single vector runs exactly what SpMV runs.
type execBackend interface {
	kind() BackendKind
	phase() phase
	partition(parts int) []int
	spmmRange(x, y []float64, nv, lo, hi int)
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
func (b csrBackend) partition(parts int) []int {
	return parallel.PartitionByPtr(b.a.Rows, parts, b.a.RowPtr)
}
func (b csrBackend) spmmRange(x, y []float64, nv, lo, hi int) {
	sparse.SpMMRange(b.a, x, y, nv, lo, hi)
}
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
func (b *sellBackend) spmmRange(x, y []float64, nv, lo, hi int) {
	if nv == 1 {
		b.s.SpMVRange(x, y, lo, hi)
	} else {
		b.s.SpMMRange(x, y, nv, lo, hi)
	}
}
func (b *sellBackend) withValues(a *sparse.CSR) execBackend {
	return &sellBackend{s: b.s.WithValues(a)}
}

// bsrBackend executes on a block-CSR conversion of the plan's
// execution-order matrix.
type bsrBackend struct{ b *sparse.BSR }

func (e *bsrBackend) kind() BackendKind { return BackendBSR }
func (e *bsrBackend) phase() phase      { return phaseStandardBSR }
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
func (e *bsrBackend) spmmRange(x, y []float64, nv, lo, hi int) {
	if nv == 1 {
		e.b.SpMVRange(x, y, lo, hi)
	} else {
		e.b.SpMMRange(x, y, nv, lo, hi)
	}
}
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
// canonical options and the execution-order matrix a, recording the
// verdict and its cost in stats: the forced formats build directly (SELL
// at the default chunk and window, BSR at the block size the structure
// suggests), BackendAuto replays an injected registry verdict or runs
// the autotuner, and the default CSR wraps a with zero extra storage.
func initBackend(opt Options, a *sparse.CSR, stats *PlanStats) (execBackend, error) {
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
			dec = autotune(a)
		}
		stats.Tune = &dec
	default:
		return nil, fmt.Errorf("core: NewPlan: unknown backend kind %d: %w", int(opt.Backend), ErrBadBackend)
	}
	be := buildBackend(a, dec)
	stats.Backend = dec.Backend.String()
	stats.TuneTime = time.Since(start)
	return be, nil
}

// Backend returns the storage format the plan's kernels execute on; see
// PlanStats.Backend.
func (p *Plan) Backend() string { return p.stats.Backend }
