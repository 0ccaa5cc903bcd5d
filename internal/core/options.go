package core

import (
	"fmt"

	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
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
	// EngineAuto is the engine this host's model recommends — today
	// forward-backward: Canonical resolves it to EngineForwardBackward,
	// so an Auto plan is the forced FB plan, built the same way and
	// keyed the same in the registry. Plan.Engine reports the engine.
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

// Options configures a Plan. The engine decides what a plan stores and
// tunes, so every other field belongs to the engines that read it (see
// Canonical).
type Options struct {
	Engine Engine
	// BtB enables the back-to-back interleaved vector layout
	// (Section III-C). Only meaningful for EngineForwardBackward.
	BtB bool
	// Threads > 1 enables the parallel engines with that many workers;
	// 0 or 1 runs serial. For EngineForwardBackward parallel execution
	// requires (and implies) ABMC reordering. A plan with a worker pool
	// runs one execution at a time (the pool is a single SPMD region);
	// a serial plan admits up to GOMAXPROCS at once. Excess callers
	// queue in FIFO order either way.
	Threads int
	// NumBlocks is the ABMC block count (0 = paper default 512). Only
	// meaningful for EngineForwardBackward with Threads > 1.
	NumBlocks int
	// LevelBlockBytes is the cache budget (bytes of matrix data) per
	// level block of the level-blocked engine (0 =
	// DefaultLevelBlockBytes). Only meaningful for EngineLevelBlocked.
	LevelBlockBytes int
	// validated is the matrix the registry has already proven
	// well-formed (WithValidated): derived state, excluded from
	// fingerprints and canonicalization.
	validated *sparse.CSR
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

// needABMC reports whether a plan under o reorders with ABMC: only the
// parallel FB pipeline, whose color barriers are the ABMC colors. A
// serial plan keeps the caller's order, and the level schedule supplies
// its own.
func (o Options) needABMC() bool {
	return o.Threads > 1 && o.Engine == EngineForwardBackward
}

// Canonical maps options onto their equivalence-class representative:
// fields that cannot affect the built plan are zeroed and defaulted
// fields are resolved, so option sets that build interchangeable plans
// are equal regardless of how the caller spelled them (struct literal
// vs functional options, Threads 0 vs 1, NumBlocks 0 vs the 512
// default, EngineAuto vs the engine it resolves to, ...). NewPlan builds
// from the canonical form and the registry fingerprints it, so what a
// knob means is decided here and nowhere else.
func (o Options) Canonical() Options {
	if o.Engine == EngineAuto {
		o.Engine = EngineForwardBackward
	}
	if o.Threads <= 1 {
		// 0 and 1 both select the serial engines.
		o.Threads = 0
	}
	if o.Engine != EngineForwardBackward {
		// BtB is a property of the FB pipeline's vector layout.
		o.BtB = false
	}
	if o.needABMC() {
		if o.NumBlocks <= 0 {
			o.NumBlocks = reorder.DefaultNumBlocks
		}
	} else {
		// No reordering: the block count is inert.
		o.NumBlocks = 0
	}
	if o.Engine == EngineLevelBlocked {
		// Resolve the block budget so 0 and the explicit default agree;
		// inert for the other engines.
		if o.LevelBlockBytes <= 0 {
			o.LevelBlockBytes = DefaultLevelBlockBytes
		}
	} else {
		o.LevelBlockBytes = 0
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

// WithLevelBlockBytes sets the cache budget (bytes of matrix data) per
// level block of the level-blocked engine (0 = DefaultLevelBlockBytes,
// half the simulated Xeon L3). Ignored by the other engines.
func WithLevelBlockBytes(b int) Option {
	return optionFunc(func(o *Options) { o.LevelBlockBytes = b })
}

// WithValidated vouches that a passes a.Validate() as it stands, so a
// NewPlan of that very matrix does not prove it again: the registry's
// content pass checks every CSR invariant while it hashes, and a second
// pass is most of a tenth of a cold build. A plan for any other matrix
// validates as ever. This is derived state — outside fingerprints,
// canonicalization and the root package.
func WithValidated(a *sparse.CSR) Option {
	return optionFunc(func(o *Options) { o.validated = a })
}
