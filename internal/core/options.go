package core

import (
	"fmt"

	"fbmpk/internal/graph"
	"fbmpk/internal/reorder"
)

// Engine selects the MPK computation pipeline.
type Engine int

const (
	// EngineStandard is the Algorithm 1 baseline: k plain SpMV sweeps.
	EngineStandard Engine = iota
	// EngineForwardBackward is the paper's FBMPK pipeline.
	EngineForwardBackward
	// EngineLevelBlocked is the level-blocked cache engine: BFS levels
	// grouped into cache-budget blocks, all k powers executed over each
	// resident block (see internal/core/levelblock.go).
	EngineLevelBlocked
	// EngineAuto arbitrates between EngineForwardBackward and
	// EngineLevelBlocked per matrix at build time (see AutotuneEngine);
	// the winner is reported by Plan.Engine and PlanStats.Tune.Engine.
	EngineAuto
)

func (e Engine) String() string {
	switch e {
	case EngineStandard:
		return "standard"
	case EngineForwardBackward:
		return "fbmpk"
	case EngineLevelBlocked:
		return "levelblock"
	case EngineAuto:
		return "auto"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine maps an engine name ("fbmpk", "standard", "levelblock",
// "auto") to its Engine; used by command-line flags.
func ParseEngine(s string) (Engine, error) {
	for _, e := range []Engine{EngineForwardBackward, EngineStandard, EngineLevelBlocked, EngineAuto} {
		if s == e.String() {
			return e, nil
		}
	}
	return EngineForwardBackward, fmt.Errorf("core: unknown engine %q (have fbmpk, standard, levelblock, auto)", s)
}

// Options configures a Plan.
type Options struct {
	Engine Engine
	// BtB enables the back-to-back interleaved vector layout
	// (Section III-C). Only meaningful for EngineForwardBackward.
	BtB bool
	// Threads > 1 enables the parallel engines with that many workers;
	// 0 or 1 runs serial. For EngineForwardBackward parallel execution
	// requires (and implies) ABMC reordering.
	Threads int
	// NumBlocks is the ABMC block count (0 = paper default 512).
	NumBlocks int
	// ColorOrder is the greedy coloring visit order for ABMC.
	ColorOrder graph.ColorOrder
	// ForceABMC applies ABMC reordering even for serial execution,
	// which Table III uses to isolate the reordering's locality effect.
	ForceABMC bool
	// PreRCM applies a reverse Cuthill-McKee pass before blocking, so
	// ABMC's contiguous blocks cover graph-local rows. Helps matrices
	// whose natural order scatters neighborhoods (no-op without ABMC).
	PreRCM bool
	// SelfCheck audits the plan's preprocessing products after
	// construction — CSR well-formedness of the execution-order matrix,
	// exact L+D+U reassembly, permutation bijectivity, and ABMC color
	// independence (see internal/check) — and fails NewPlan if any
	// invariant is violated. Debug aid: costs one extra pass over the
	// matrix, nothing per MPK call.
	SelfCheck bool
	// MaxInFlight bounds the executions a shared plan admits at once;
	// excess callers queue in FIFO order. 0 selects the default:
	// GOMAXPROCS for serial plans. Plans with a worker pool (Threads >
	// 1) always run one engine invocation at a time — the pool is a
	// single SPMD region — so MaxInFlight is clamped to 1 there and the
	// gate only provides fair queueing and close semantics.
	MaxInFlight int
	// Backend selects the storage format of the full-matrix SpMV/SpMM
	// kernels (standard-engine sweeps and the SpMM block path; FB
	// sweeps always run on the split CSR). The zero value BackendCSR
	// keeps the bitwise-stable baseline; BackendAuto runs the
	// autotuner at build time (see Autotune); BackendSELL/BackendBSR
	// force a format.
	Backend BackendKind
	// SELLChunk is the SELL-C-sigma chunk height (0 =
	// DefaultSELLChunk). Only meaningful for BackendSELL.
	SELLChunk int
	// SELLSigma is the SELL row-sorting window (0 = DefaultSELLSigma;
	// 1 disables sorting). Only meaningful for BackendSELL.
	SELLSigma int
	// BSRBlock is the BSR block size (0 = detect from the structure,
	// see DetectBSRBlock). Only meaningful for BackendBSR.
	BSRBlock int
	// LevelBlockBytes is the cache budget (bytes of matrix data) per
	// level block of the level-blocked engine (0 =
	// DefaultLevelBlockBytes). Only meaningful for EngineLevelBlocked
	// and EngineAuto.
	LevelBlockBytes int
	// TuneK is the power k the EngineAuto arbitration optimizes for
	// (0 = DefaultTuneK). Only meaningful for EngineAuto.
	TuneK int
	// tuned is a cached autotuner verdict injected by the registry via
	// WithTunedDecision: a BackendAuto plan replays it instead of
	// sampling. Excluded from fingerprints and canonicalization — it
	// is derived state, not configuration.
	tuned *TuneDecision
}

// DefaultOptions returns the configuration the paper evaluates as
// "FBMPK": forward-backward pipeline, BtB layout, parallel over ABMC
// colors with the default block count.
func DefaultOptions(threads int) Options {
	return Options{
		Engine:  EngineForwardBackward,
		BtB:     true,
		Threads: threads,
	}
}

// needABMC reports whether a plan executing engine eng under o
// reorders with ABMC: on request for any engine that keeps row order
// free (the level schedule supplies its own ordering), and always for
// the parallel FB pipeline, whose color barriers are the ABMC colors.
func (o Options) needABMC(eng Engine) bool {
	return (o.ForceABMC && eng != EngineLevelBlocked) ||
		(o.Threads > 1 && eng == EngineForwardBackward)
}

// Canonical maps options onto their equivalence-class representative:
// fields that cannot affect the built plan are zeroed and defaulted
// fields are resolved, so option sets that build interchangeable plans
// are equal regardless of how the caller spelled them (struct literal
// vs functional options, Threads 0 vs 1, NumBlocks 0 vs the 512
// default, ...). NewPlan builds from the canonical form and the
// registry fingerprints it, so what a knob means is decided here and
// nowhere else. An EngineAuto configuration keeps every knob either
// candidate engine reads, since the arbitration may resolve to either.
func (o Options) Canonical() Options {
	if o.Threads <= 1 {
		// 0 and 1 both select the serial engines.
		o.Threads = 0
	}
	auto := o.Engine == EngineAuto
	if o.Engine != EngineForwardBackward && !auto {
		// BtB is a property of the FB pipeline's vector layout.
		o.BtB = false
	}
	if o.Engine == EngineLevelBlocked {
		// ABMC never runs, so ForceABMC is inert (and must fold before
		// the needABMC test below zeroes the blocking knobs it would
		// otherwise pin).
		o.ForceABMC = false
	}
	if o.needABMC(o.Engine) || (auto && o.needABMC(EngineForwardBackward)) {
		if o.NumBlocks <= 0 {
			o.NumBlocks = reorder.DefaultNumBlocks
		}
	} else {
		// No reordering: the blocking/coloring knobs are inert.
		o.NumBlocks = 0
		o.ColorOrder = 0
		o.PreRCM = false
	}
	if o.Engine == EngineLevelBlocked || auto {
		// Resolve the block budget so 0 and the explicit default agree;
		// inert for the other engines.
		if o.LevelBlockBytes <= 0 {
			o.LevelBlockBytes = DefaultLevelBlockBytes
		}
	} else {
		o.LevelBlockBytes = 0
	}
	if auto {
		if o.TuneK <= 0 {
			o.TuneK = DefaultTuneK
		}
	} else {
		// TuneK only parameterizes the EngineAuto arbitration.
		o.TuneK = 0
	}
	if o.Threads > 1 {
		// A worker pool is a single SPMD region: one execution at a time.
		o.MaxInFlight = 1
	} else if o.MaxInFlight < 0 {
		o.MaxInFlight = 0
	}
	switch o.Backend {
	case BackendSELL:
		// Resolve defaults and round sigma up to a chunk multiple the way
		// ToSELL does, so every spelling of one executed SELL
		// configuration agrees; the BSR knob is inert.
		if o.SELLChunk <= 0 {
			o.SELLChunk = DefaultSELLChunk
		}
		if o.SELLSigma <= 0 {
			o.SELLSigma = DefaultSELLSigma
		}
		if o.SELLSigma > 1 && o.SELLSigma%o.SELLChunk != 0 {
			o.SELLSigma += o.SELLChunk - o.SELLSigma%o.SELLChunk
		}
		o.BSRBlock = 0
	case BackendBSR:
		// SELL knobs are inert; non-positive block sizes all mean
		// "detect from the structure".
		o.SELLChunk, o.SELLSigma = 0, 0
		if o.BSRBlock < 0 {
			o.BSRBlock = 0
		}
	default:
		// CSR and Auto ignore every format knob (Auto picks its own).
		o.SELLChunk, o.SELLSigma, o.BSRBlock = 0, 0, 0
	}
	return o
}

// Option is a functional configuration knob for NewPlan. Two styles
// compose: an Options value is itself an Option that applies wholesale
// (so existing NewPlan(a, opt) call sites keep working and a fully
// explicit configuration stays one literal), while the With* options
// tweak individual fields on top of the FBMPK defaults.
type Option interface {
	applyOption(*Options)
}

// applyOption makes Options itself an Option: passing one replaces the
// whole configuration, including fields left at their zero value.
func (o Options) applyOption(dst *Options) { *dst = o }

type optionFunc func(*Options)

func (f optionFunc) applyOption(o *Options) { f(o) }

// BuildOptions resolves a NewPlan option list to a concrete Options
// value. The starting point is the paper's FBMPK configuration,
// serial (DefaultOptions(0)); options apply left to right.
func BuildOptions(opts ...Option) Options {
	o := DefaultOptions(0)
	for _, op := range opts {
		op.applyOption(&o)
	}
	return o
}

// WithOptions replaces the entire configuration with o (identical to
// passing o directly; provided for call sites that prefer the With*
// form throughout).
func WithOptions(o Options) Option { return o }

// WithEngine selects the MPK pipeline.
func WithEngine(e Engine) Option {
	return optionFunc(func(o *Options) { o.Engine = e })
}

// WithBtB toggles the back-to-back interleaved vector layout.
func WithBtB(on bool) Option {
	return optionFunc(func(o *Options) { o.BtB = on })
}

// WithThreads sets the worker count; n > 1 selects the parallel
// engines.
func WithThreads(n int) Option {
	return optionFunc(func(o *Options) { o.Threads = n })
}

// WithNumBlocks sets the ABMC block count (0 = paper default 512).
func WithNumBlocks(n int) Option {
	return optionFunc(func(o *Options) { o.NumBlocks = n })
}

// WithForceABMC applies ABMC reordering even for serial execution.
func WithForceABMC(on bool) Option {
	return optionFunc(func(o *Options) { o.ForceABMC = on })
}

// WithPreRCM toggles the reverse Cuthill-McKee pass before ABMC
// blocking.
func WithPreRCM(on bool) Option {
	return optionFunc(func(o *Options) { o.PreRCM = on })
}

// WithSelfCheck toggles the post-construction invariant audit.
func WithSelfCheck(on bool) Option {
	return optionFunc(func(o *Options) { o.SelfCheck = on })
}

// WithMaxInFlight bounds concurrent executions on a shared plan (see
// Options.MaxInFlight).
func WithMaxInFlight(n int) Option {
	return optionFunc(func(o *Options) { o.MaxInFlight = n })
}

// WithBackend selects the storage format of the full-matrix kernels
// (see Options.Backend): BackendAuto runs the autotuner at build time,
// BackendSELL/BackendBSR force a format, BackendCSR (the default)
// keeps the bitwise-stable split-CSR baseline.
func WithBackend(k BackendKind) Option {
	return optionFunc(func(o *Options) { o.Backend = k })
}

// WithSELLChunk sets the SELL-C-sigma chunk height (0 =
// DefaultSELLChunk).
func WithSELLChunk(c int) Option {
	return optionFunc(func(o *Options) { o.SELLChunk = c })
}

// WithSELLSigma sets the SELL row-sorting window (0 =
// DefaultSELLSigma; 1 disables sorting).
func WithSELLSigma(s int) Option {
	return optionFunc(func(o *Options) { o.SELLSigma = s })
}

// WithBSRBlock sets the BSR block size (0 = detect from the matrix
// structure, see DetectBSRBlock).
func WithBSRBlock(r int) Option {
	return optionFunc(func(o *Options) { o.BSRBlock = r })
}

// WithLevelBlockBytes sets the cache budget (bytes of matrix data) per
// level block of the level-blocked engine (0 = DefaultLevelBlockBytes,
// half the simulated Xeon L3). Ignored by the other engines.
func WithLevelBlockBytes(b int) Option {
	return optionFunc(func(o *Options) { o.LevelBlockBytes = b })
}

// WithTuneK sets the power k the EngineAuto arbitration optimizes for
// (0 = DefaultTuneK). The verdict is cached per (structure, options)
// key, so plans tuned for different k arbitrate independently.
func WithTuneK(k int) Option {
	return optionFunc(func(o *Options) { o.TuneK = k })
}

// WithTunedDecision injects a cached autotuner verdict: a BackendAuto
// plan replays the decision instead of sampling. The registry uses
// this to serve its structure-keyed verdict cache; no-op for other
// backends. The replayed plan reports Tune.FromCache = true and
// Tune.Samples = 0.
func WithTunedDecision(d TuneDecision) Option {
	return optionFunc(func(o *Options) { o.tuned = &d })
}
