// Package fbmpk is an open-source implementation of the memory-aware
// sequence-of-SpMV (SSpMV) optimization of Zhang et al., "Memory-aware
// Optimization for Sequences of Sparse Matrix-Vector Multiplications"
// (IEEE IPDPS 2023): the forward-backward matrix-power kernel (FBMPK).
//
// FBMPK accelerates repeated products with the same sparse matrix —
// A·x, A²·x, …, Aᵏ·x and linear combinations y = Σ αᵢ Aⁱ x — by
// splitting A into L + D + U and pipelining consecutive SpMV
// invocations through forward (over L) and backward (over U) sweeps,
// reading the matrix from memory about (k+1)/2 times instead of k.
// A back-to-back interleaved vector layout (BtB) improves the vector
// locality of the pipelined sweeps, and the algebraic block
// multi-color ordering (ABMC) exposes the parallelism of the
// Gauss-Seidel-style dependency structure.
//
// # Quick start
//
//	a, _, err := fbmpk.LoadMatrixMarket("matrix.mtx") // or a generator
//	plan, err := fbmpk.NewPlan(a, fbmpk.WithThreads(runtime.GOMAXPROCS(0)))
//	defer plan.Close()
//	xk, err := plan.MPK(x0, 5)            // A^5 x0
//	y, err := plan.SSpMV(coeffs, x0)      // sum coeffs[i] A^i x0
//
// NewPlan accepts functional options (WithThreads, WithEngine, ...) on
// top of the paper's FBMPK defaults; an explicit Options value applies
// wholesale and remains fully supported.
//
// The one-off plan construction performs the L+D+U split and, for
// parallel plans, the ABMC reorder; its cost is amortized over the MPK
// invocations exactly as discussed in Section V-F of the paper.
//
// # Serving
//
// A Plan's preprocessed core is shared safely by any number of
// goroutines. Executions are admitted through a fair FIFO gate — up to
// GOMAXPROCS at once on a serial plan, one at a time on a plan with a
// worker pool — per-call scratch comes from an internal workspace pool,
// Plan.Close drains in-flight work and fails late arrivals with
// ErrClosed, and Plan.Metrics exposes traffic and latency counters.
//
// The context-accepting entry points — MPKCtx, SSpMVCtx, SymGSCtx,
// MPKMultiCtx, SSpMVMultiCtx, ... — are the primary execution API:
// they honor deadlines and cancellation at pipeline barriers, which
// any caller with a request deadline (HTTP handlers, job runners)
// needs. The context-free forms (MPK, SSpMV, ...) are thin wrappers
// over context.Background() kept for scripts and tests where no
// deadline exists.
//
// # Mutable matrices
//
// When the matrix's values change but its sparsity pattern does not —
// PageRank on an evolving graph, time-stepping with changing
// coefficients — Plan.UpdateValues swaps in the new values without
// re-running preprocessing: the permutation, the index arrays of the
// one container the plan's engine runs on (the L+D+U split, or the
// matrix in the standard or level-blocked engine's order), and
// the parallel schedule are all structure-determined and stay; only
// that container's values are rebuilt. Updates are
// epoch/RCU-published: executions already admitted finish bitwise on
// the values they started with, later admissions see the new values.
// Registry.UpdateValues is the cache-aware form, re-keying the cached
// plan to the new content fingerprint and falling back to a full
// rebuild on a structure delta.
//
// Subpackages under internal implement the substrates: sparse formats
// (CSR, SELL-C-sigma, BSR), MatrixMarket I/O, the synthetic
// evaluation-suite generators, graph coloring, reorderings (ABMC, RCM,
// BFS levels), the worker pool, and the cache simulator used to
// reproduce the paper's DRAM-traffic measurements.
package fbmpk

import (
	"fmt"

	"fbmpk/internal/core"
	"fbmpk/internal/matgen"
	"fbmpk/internal/mmio"
	"fbmpk/internal/sparse"
)

// Matrix is a sparse matrix in CSR format (see Fig 1 of the paper).
type Matrix = sparse.CSR

// Typed errors returned by the public API on argument misuse. Every
// fbmpk.* function and Plan.* method validates its inputs and returns
// an error wrapping one of these sentinels (match with errors.Is)
// instead of panicking; see the README "Error semantics" section.
var (
	// ErrNotSquare reports a rectangular matrix passed where a square
	// one is required (plans, MPK, SSpMV).
	ErrNotSquare = sparse.ErrNotSquare
	// ErrInvalidMatrix reports a nil matrix or one whose CSR arrays
	// fail structural validation (lengths, monotone row pointers,
	// sorted in-range column indices).
	ErrInvalidMatrix = core.ErrInvalidMatrix
	// ErrDimension reports a vector length that does not match the
	// matrix dimension.
	ErrDimension = core.ErrDimension
	// ErrBadPower reports a requested power k < 1.
	ErrBadPower = core.ErrBadPower
	// ErrBadCoeffs reports an empty coefficient slice or one whose
	// length disagrees with the requested power.
	ErrBadCoeffs = core.ErrBadCoeffs
	// ErrEmptyBlock reports a batched (multi-RHS) call with no vectors.
	ErrEmptyBlock = core.ErrEmptyBlock
	// ErrBadEngine reports an Engine option that is none of the four
	// Engine constants.
	ErrBadEngine = core.ErrBadEngine
	// ErrBadSweeps reports a SymGS sweep count < 1.
	ErrBadSweeps = core.ErrBadSweeps
	// ErrNoSplit reports SymGS on a standard-engine plan, which does
	// not build the L+D+U split the smoother needs.
	ErrNoSplit = core.ErrNoSplit
	// ErrClosed reports a call on a plan after Close: the execution was
	// rejected at the admission gate, not partially run.
	ErrClosed = core.ErrClosed
	// ErrStructureChanged reports Plan.UpdateValues with a matrix whose
	// sparsity pattern differs from the one the plan was built on; the
	// plan is left untouched (Registry.UpdateValues falls back to a
	// rebuild instead).
	ErrStructureChanged = core.ErrStructureChanged
)

// Triplets accumulates (row, col, value) entries and converts them to
// a Matrix, summing duplicates.
type Triplets = sparse.COO

// NewTriplets returns an empty triplet builder for a rows x cols
// matrix; capHint pre-sizes the buffers. Negative dimensions or
// capacity are rejected with an error wrapping ErrInvalidMatrix.
func NewTriplets(rows, cols, capHint int) (*Triplets, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("fbmpk: NewTriplets(%d, %d): negative dimension: %w", rows, cols, ErrInvalidMatrix)
	}
	if capHint < 0 {
		return nil, fmt.Errorf("fbmpk: NewTriplets: negative capacity hint %d: %w", capHint, ErrInvalidMatrix)
	}
	return sparse.NewCOO(rows, cols, capHint), nil
}

// Plan is a prepared executor for MPK and SSpMV on one matrix; see
// NewPlan. A plan is immutable after construction and safe for
// concurrent use by multiple goroutines (see the Serving section of
// the package documentation).
type Plan = core.Plan

// PlanMetrics is a snapshot of a plan's execution counters: calls by
// operation, pipeline sweeps, SpMV-equivalents served, matrix nonzeros
// streamed (ReadsPerSpMV is the paper's (k+1)/2k headline metric), and
// the wait/compute split per pipeline phase. It marshals to JSON and
// its String method returns the JSON encoding.
type PlanMetrics = core.PlanMetrics

// Options configures a Plan in five fields: the engine, and what each
// engine reads — the back-to-back vector layout (FBMPK), thread count,
// ABMC block count (parallel FBMPK) and the level-block budget
// (level-blocked engine). An Options value is itself an Option applying
// wholesale.
type Options = core.Options

// Option is a functional configuration knob for NewPlan; see
// WithThreads, WithEngine, ..., or pass an Options value.
type Option = core.Option

// WithEngine selects the MPK pipeline (EngineForwardBackward is the
// default).
func WithEngine(e Engine) Option { return core.WithEngine(e) }

// WithBtB toggles the back-to-back interleaved vector layout
// (default on).
func WithBtB(on bool) Option { return core.WithBtB(on) }

// WithThreads sets the worker count; n > 1 selects the parallel
// engines (default serial).
func WithThreads(n int) Option { return core.WithThreads(n) }

// WithNumBlocks sets the ABMC block count (0 = paper default 512).
func WithNumBlocks(n int) Option { return core.WithNumBlocks(n) }

// WithLevelBlockBytes sets the cache budget (bytes of matrix data) per
// level block of the level-blocked engine (0 = DefaultLevelBlockBytes).
func WithLevelBlockBytes(b int) Option { return core.WithLevelBlockBytes(b) }

// Engine selects the MPK pipeline.
type Engine = core.Engine

// Engine values.
const (
	// EngineStandard is the Algorithm 1 baseline: k plain SpMV sweeps.
	EngineStandard = core.EngineStandard
	// EngineForwardBackward is the paper's FBMPK pipeline.
	EngineForwardBackward = core.EngineForwardBackward
	// EngineLevelBlocked groups BFS levels into cache-sized blocks and
	// executes all k powers over each resident block — the LB-MPK line
	// of related work (Alappat et al.), which trades k+1 live iterate
	// vectors for ~1 read of A per k-power sequence. See the README
	// "Level-blocked engine" section.
	EngineLevelBlocked = core.EngineLevelBlocked
	// EngineAuto is the engine this host's model recommends — today
	// forward-backward. It resolves to EngineForwardBackward with no
	// level schedule, model or timing: an Auto plan is the forced FB plan
	// of the same options, under the same registry key, and Plan.Engine
	// reports EngineForwardBackward.
	EngineAuto = core.EngineAuto
)

// DefaultLevelBlockBytes is the level-block cache budget used when
// WithLevelBlockBytes is not given: half of the simulated reference
// Xeon L3, leaving room for the live iterate-vector window.
const DefaultLevelBlockBytes = core.DefaultLevelBlockBytes

// ParseEngine maps an engine name ("fbmpk", "standard", "levelblock",
// "auto") to its Engine; intended for command-line flags.
func ParseEngine(s string) (Engine, error) { return core.ParseEngine(s) }

// PlanStats reports the one-off preprocessing cost breakdown of plan
// construction.
type PlanStats = core.PlanStats

// NewPlan prepares an executor for the square matrix a: the one-off
// preprocessing (split, ABMC reorder for parallel plans). No options is
// the paper's FBMPK, serial; With* options adjust it, an Options value
// replaces it. A standard-engine plan reads a's arrays at every call
// (one from a Registry, the registry's copy of them). Close the plan
// to release its worker pool.
func NewPlan(a *Matrix, opts ...Option) (*Plan, error) {
	return core.NewPlan(a, opts...)
}

// DefaultOptions returns the configuration the paper evaluates as
// FBMPK: forward-backward pipeline, BtB layout, ABMC parallelization
// with the given thread count.
func DefaultOptions(threads int) Options {
	return core.DefaultOptions(threads)
}

// MPK computes A^k x0 with a one-shot plan. For repeated invocations
// on the same matrix build a Plan once instead.
func MPK(a *Matrix, x0 []float64, k int, opts ...Option) ([]float64, error) {
	p, err := NewPlan(a, opts...)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.MPK(x0, k)
}

// SSpMV computes sum_{i=0..len(coeffs)-1} coeffs[i] * A^i * x0 with a
// one-shot plan.
func SSpMV(a *Matrix, coeffs, x0 []float64, opts ...Option) ([]float64, error) {
	p, err := NewPlan(a, opts...)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.SSpMV(coeffs, x0)
}

// MPKMulti computes A^k x_j for a block of m right-hand sides with a
// one-shot plan, batched through the multi-vector FBMPK pipeline: one
// sweep of L/U advances all m vectors, so each matrix read serves 2*m
// SpMV applications (asymptotically 1/(2m) reads of A per SpMV). For
// repeated invocations on the same matrix build a Plan once and call
// Plan.MPKMulti.
func MPKMulti(a *Matrix, xs [][]float64, k int, opts ...Option) ([][]float64, error) {
	p, err := NewPlan(a, opts...)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.MPKMulti(xs, k)
}

// SSpMVMulti computes combo_j = sum coeffs[i] * A^i * x_j for every
// vector of the block with a one-shot plan (the same coefficients apply
// to every right-hand side). See Plan.SSpMVMulti.
func SSpMVMulti(a *Matrix, coeffs []float64, xs [][]float64, opts ...Option) ([][]float64, error) {
	p, err := NewPlan(a, opts...)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.SSpMVMulti(coeffs, xs)
}

// StandardMPK runs the serial Algorithm 1 baseline (k SpMV sweeps).
func StandardMPK(a *Matrix, x0 []float64, k int) ([]float64, error) {
	if err := validMatrix(a); err != nil {
		return nil, err
	}
	return core.StandardMPK(a, x0, k, nil)
}

// LevelBlockedMPK computes A^k x0 with a one-shot serial plan of the
// level-blocked engine (blockBytes <= 0 = DefaultLevelBlockBytes); build
// a plan with WithEngine(EngineLevelBlocked) for repeated, parallel or
// cancellable calls.
func LevelBlockedMPK(a *Matrix, x0 []float64, k int, blockBytes int) ([]float64, error) {
	return MPK(a, x0, k, WithEngine(EngineLevelBlocked), WithLevelBlockBytes(blockBytes))
}

// validMatrix is the package-level error boundary for functions that
// take a caller-supplied matrix without building a Plan (NewPlan runs
// the same validation itself): a nil or structurally invalid CSR must
// surface as a typed error here, not as an index panic inside a kernel.
func validMatrix(a *Matrix) error {
	if a == nil {
		return fmt.Errorf("fbmpk: nil matrix: %w", ErrInvalidMatrix)
	}
	if err := a.Validate(); err != nil {
		return fmt.Errorf("fbmpk: %w: %v", ErrInvalidMatrix, err)
	}
	return nil
}

// LoadMatrixMarket reads a MatrixMarket (.mtx) file. Symmetric
// storage is expanded to both triangles. The second return value
// reports whether the file declared itself symmetric.
func LoadMatrixMarket(path string) (*Matrix, bool, error) {
	m, h, err := mmio.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	return m, h.Symmetry != "general", nil
}

// SaveMatrixMarket writes the matrix as "coordinate real general".
func SaveMatrixMarket(path string, m *Matrix) error {
	if err := validMatrix(m); err != nil {
		return err
	}
	return mmio.WriteFile(path, m)
}

// GenerateSuiteMatrix builds the synthetic stand-in for one of the 14
// matrices of the paper's Table II evaluation suite (see
// internal/matgen for the substitution rationale). scale is the
// approximate fraction of the paper's row count; seed makes the
// matrix reproducible.
func GenerateSuiteMatrix(name string, scale float64, seed uint64) (*Matrix, error) {
	spec, err := matgen.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Generate(scale, seed), nil
}

// SuiteNames lists the paper's evaluation matrices in Table II order.
func SuiteNames() []string { return matgen.Names() }

// Verify checks an MPK result against the serial baseline and returns
// an error when the relative max difference exceeds tol. Intended for
// smoke tests; ExampleVerify and solver's ExampleCG show it in use.
func Verify(a *Matrix, x0, got []float64, k int, tol float64) error {
	want, err := StandardMPK(a, x0, k)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("fbmpk: result length %d != n %d: %w", len(got), len(want), ErrDimension)
	}
	if d := sparse.RelMaxDiff(got, want); d > tol {
		return fmt.Errorf("fbmpk: result differs from baseline by %g (tol %g)", d, tol)
	}
	return nil
}
