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
// vector and block (SpMM) alike: CSR or BSR. No other engine has one:
// the forward-backward sweeps run on the L+D+U split CSR, and the
// level-blocked steps on the raw level-ordered CSR (see
// Options.Canonical). SELL-C-sigma is a format the benchmark times
// (sparse.ToSELL), not a backend: the census's cost table prices it
// above CSR on every sample it prices (DESIGN.md §10).
type BackendKind int

const (
	// BackendCSR keeps the split-CSR baseline kernels (the default).
	// CSR results are bitwise-stable across plan rebuilds, which is why
	// it stays the zero value: opting into another backend (or a non-CSR
	// verdict of BackendAuto) changes the in-row summation order, so
	// results match CSR to rounding (<= 1e-12 relative) rather than
	// bitwise.
	BackendCSR BackendKind = iota
	// BackendAuto picks the format per matrix from its structure alone:
	// a census of what CSR and BSR would store, priced by a
	// committed per-format cost table (autotune, tune.go). The plan is
	// the forced plan of the format it picks, bit for bit.
	BackendAuto
	// BackendBSR forces the block-CSR backend (R x R dense blocks, with
	// a structure-based block-size detector when no size is forced).
	BackendBSR
	numBackends
)

var backendNames = [numBackends]string{
	BackendCSR:  "csr",
	BackendAuto: "auto",
	BackendBSR:  "bsr",
}

func (k BackendKind) String() string {
	if k >= 0 && k < numBackends {
		return backendNames[k]
	}
	return fmt.Sprintf("Backend(%d)", int(k))
}

// MarshalJSON renders the kind as its name, keeping BackendAuto
// verdicts human-readable.
func (k BackendKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// ParseBackend maps a backend name ("csr", "auto", "bsr") to
// its kind; used by command-line flags.
func ParseBackend(s string) (BackendKind, error) {
	for k, name := range backendNames {
		if s == name {
			return BackendKind(k), nil
		}
	}
	return BackendCSR, fmt.Errorf("core: unknown backend %q (have csr, auto, bsr)", s)
}

// execBackend abstracts the full-matrix kernels over the storage
// format, so the standard engine's one driver stays format-agnostic.
// Range bounds follow each backend's partition contract: partition
// returns worker row bounds aligned to the format's storage granularity
// (any row for CSR, block-row-aligned rows for BSR), and spmmRange of
// disjoint ranges writes disjoint y entries. spmmRange at nv = 1 is the
// format's SpMV range kernel, so a single vector runs exactly what SpMV
// runs.
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

// initBackend resolves the standard engine's execution backend from the
// canonical options and the execution-order matrix a, recording the
// format and its cost in stats: BSR builds at DetectBSRBlock's size,
// BackendAuto builds whichever of CSR and BSR its census picks, and CSR
// wraps a with zero extra storage.
func initBackend(opt Options, a *sparse.CSR, stats *PlanStats) (execBackend, error) {
	start := time.Now()
	kind, block := opt.Backend, 0
	switch kind {
	case BackendAuto:
		dec := autotune(a)
		stats.Tune = &dec
		kind, block = dec.Backend, dec.Block
	case BackendBSR:
		block = DetectBSRBlock(a)
	}
	var be execBackend
	switch kind {
	case BackendCSR:
		be = csrBackend{a: a}
	case BackendBSR:
		be = &bsrBackend{b: sparse.ToBSR(a, block, block)}
	default:
		return nil, fmt.Errorf("core: NewPlan: unknown backend kind %d: %w", int(opt.Backend), ErrBadBackend)
	}
	stats.Backend = kind.String()
	stats.TuneTime = time.Since(start)
	return be, nil
}

// Backend returns the storage format the plan's kernels execute on; see
// PlanStats.Backend.
func (p *Plan) Backend() string { return p.stats.Backend }
