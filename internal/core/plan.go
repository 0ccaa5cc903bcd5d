package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fbmpk/internal/check"
	"fbmpk/internal/events"
	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// Plan is a prepared MPK/SSpMV executor for one matrix. Building a
// Plan performs the one-off preprocessing the paper amortizes across
// MPK invocations (Section V-F): the L+D+U split, and for parallel
// FBMPK the ABMC reorder.
//
// After construction the structural products of preprocessing — the
// permutation, the ABMC schedule, the CSR and split index arrays —
// are never written again. The one value-bearing container the plan's
// engine runs on lives in an epoch (see planEpoch) that UpdateValues
// can atomically replace with one sharing every structure array;
// executions load the epoch exactly once at admission and run to
// completion on it, so in-flight calls are bitwise-unaffected by a
// concurrent update. Per-call scratch lives in pooled workspaces, so a
// single Plan is safe for concurrent use by any number of goroutines;
// executions are admitted through a fair FIFO gate (see
// Options.Threads). Close drains in-flight executions and fails later
// calls with ErrClosed.
type Plan struct {
	eng    Engine // resolved engine (EngineAuto canonicalized away)
	engine engine // the kernels behind eng; entry points know nothing else about it
	n      int
	ord    *reorder.ABMCResult // non-nil when ABMC was applied
	perm   reorder.Perm        // execution-order permutation (ABMC or level), nil = identity
	pool   *parallel.Pool      // non-nil when Threads > 1

	// state is the current value epoch. Readers load it once per
	// execution (in exec, after gate admission); UpdateValues publishes
	// a successor under updateMu. Never nil after NewPlan returns.
	state atomic.Pointer[planEpoch]

	// srcRowPtr/srcColIdx alias the structure arrays of the ORIGINAL
	// (unpermuted) input matrix — the reference UpdateValues compares a
	// candidate's structure against. Zero extra storage: they share the
	// caller's arrays.
	srcRowPtr []int64
	srcColIdx []int32

	// updateMu serializes UpdateValues calls; valMap (built lazily
	// under it, only for reordered plans) maps each execution-order
	// value slot to its source index in the original value array.
	updateMu    sync.Mutex
	valMap      []int64
	updates     atomic.Uint64
	updateNanos atomic.Int64

	// nnzA is the nonzero count of the matrix, the denominator of the
	// traffic accounting. Structure-only, so constant across epochs.
	nnzA uint64

	gate     *parallel.Gate
	wsPool   sync.Pool
	metrics  planMetrics
	rec      atomic.Pointer[events.Recorder] // nil = tracing disabled
	closeOne sync.Once
	closed   chan struct{} // closed once teardown completes

	stats PlanStats
}

// engine is one MPK algorithm behind a plan — forward-backward,
// standard, or level-blocked — over the plan's worker pool or, without
// one, inline on the caller. Vectors are in the plan's execution order;
// ws is the call's workspace, env its cancellation/metrics/trace
// environment, ep its pinned value epoch.
type engine interface {
	// powers returns only what its entry point hands back: A^k in,
	// which may alias workspace scratch; with coeffs (length k+1) the
	// fresh combination sum coeffs[i] * A^i * in instead; with hook nil,
	// having shown each completed iterate to hook (scratch — copy to
	// retain). No entry point sets both.
	powers(ws *workspace, env *runEnv, ep *planEpoch, in []float64, k int, coeffs []float64, hook IterateFunc) ([]float64, error)
	// powersMulti is powers for a block of vectors, without a hook,
	// returning fresh vectors: A^k x_j, or the combinations.
	powersMulti(ws *workspace, env *runEnv, ep *planEpoch, in [][]float64, k int, coeffs []float64) ([][]float64, error)
	// traffic is the analytic work of computing k powers for m vectors;
	// combos marks a powersMulti call with coefficients (a powers call
	// accumulates its combination for free in every engine; a batched
	// one may run vector by vector).
	traffic(k, m int, combos bool) work
	// revalue builds the successor of epoch cur for a matrix with the
	// plan's structure and the value array src (original entry order):
	// execution-order entry j takes src[slot[j]], or src[j] when the
	// plan did not reorder and slot is nil. Only the engine's own
	// container is rebuilt, sharing every structure array with cur.
	revalue(cur *planEpoch, src []float64, slot []int64) *planEpoch
}

// gatherValues returns the execution-order value array of revalue's
// (src, slot) pair, always a fresh slice: the epoch must not see later
// caller writes to src. Through a slot map the gather is dealt in
// ranges to GOMAXPROCS transient goroutines; without one it is a single
// copy into memory the allocator need not clear first.
func gatherValues(src []float64, slot []int64) []float64 {
	if slot == nil {
		return append([]float64(nil), src...)
	}
	vals := make([]float64, len(slot))
	parallel.DealRanges(len(slot), func(lo, hi int) {
		sparse.FillValues(vals[lo:], src, slot, int64(lo), int64(hi))
	})
	return vals
}

// planEpoch is one matrix-value generation of a plan: the container the
// plan's engine reads its values from, and nothing else. Exactly one
// field is set — the engine decides which — so a plan stores the matrix
// once, in the form it executes. Successive epochs share every
// structure array (RowPtr, ColIdx, chunk/block maps) and differ only in
// value payloads, so an epoch swap is O(nnz) allocation, never a
// re-preprocess.
type planEpoch struct {
	seq uint64
	tri *sparse.Triangular // forward-backward engine: the L+D+U split
	a   *sparse.CSR        // standard and level-blocked engines: the execution-order matrix
}

// PlanStats reports the one-off preprocessing cost of building a plan
// — the quantity Fig 11 of the paper normalizes to SpMV invocations —
// broken down by stage. For parallel plans (Threads > 1) the O(nnz)
// stages (block-graph discovery, permutation apply, L+D+U split) run
// row-parallel on the plan's worker pool; the greedy coloring stays
// serial, because a deterministic visit order is what keeps cached and
// fresh plans bitwise identical. A forward-backward plan on an ABMC
// ordering permutes and splits in one pass (reorder.Perm.SplitSym):
// the whole pass is SplitTime, PermTime stays zero, and ReorderTime is
// the ordering alone.
type PlanStats struct {
	BuildTime   time.Duration // total NewPlan wall time
	ReorderTime time.Duration // reordering total: ABMC graph + color + apply, or level schedule + apply
	GraphTime   time.Duration // ABMC block-graph discovery (parallel), or the level schedule: adjacency (parallel) + BFS + block grouping
	ColorTime   time.Duration // greedy coloring (serial by design)
	PermTime    time.Duration // symmetric permutation apply (parallel); zero when fused into the split
	SplitTime   time.Duration // A = L + D + U (parallel), permutation included when fused
	NumColors   int           // 0 when no ABMC was applied
	NumBlocks   int           // ABMC blocks, or level blocks for the level-blocked engine
	NumLevels   int           // BFS levels of the level-blocked schedule (0 otherwise)
	// ParallelPrep reports whether preprocessing ran on the worker
	// pool (Threads > 1) rather than the serial path.
	ParallelPrep bool
	// Updates counts completed UpdateValues epoch swaps; UpdateTime is
	// their cumulative wall time. An update never re-orders or
	// re-splits, so BuildTime stays the one-off cost of NewPlan.
	Updates    uint64
	UpdateTime time.Duration
}

// NewPlan prepares an executor for the square matrix a. The input
// matrix is not modified; reordering works on a copy. With no options
// the plan runs the paper's FBMPK configuration serially
// (DefaultOptions(0)); pass an Options value (which applies wholesale)
// or individual With* options to override.
func NewPlan(a *sparse.CSR, opts ...Option) (*Plan, error) {
	// Everything below reads the canonical options: defaults resolved,
	// inert knobs folded (see Options.Canonical).
	opt := BuildOptions(opts...).Canonical()
	if opt.Engine < EngineStandard || opt.Engine > EngineAuto {
		return nil, fmt.Errorf("core: NewPlan: %v: %w", opt.Engine, ErrBadEngine)
	}
	if a == nil {
		return nil, fmt.Errorf("core: NewPlan: nil matrix: %w", ErrInvalidMatrix)
	}
	if opt.validated != a {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("core: NewPlan: %w: %v", ErrInvalidMatrix, err)
		}
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("core: NewPlan: %w", sparse.ErrNotSquare)
	}
	buildStart := time.Now()
	p := &Plan{
		n: a.Rows, closed: make(chan struct{}),
		srcRowPtr: a.RowPtr, srcColIdx: a.ColIdx,
		nnzA: uint64(len(a.Val)),
	}

	// The worker pool is created before preprocessing so the O(nnz)
	// build stages (block graph, permutation apply, split) run on it;
	// after construction the same pool serves the engine.
	var runner sparse.Runner
	if opt.Threads > 1 {
		p.pool = parallel.NewPoolNamed(opt.Threads, "plan")
		runner = p.pool
	}
	ep, ea, err := p.prepare(a, opt, runner)
	if err != nil {
		if p.pool != nil {
			p.pool.Close()
		}
		return nil, err
	}
	p.stats.ParallelPrep = p.pool != nil
	p.state.Store(ep)
	capacity := runtime.GOMAXPROCS(0)
	if p.pool != nil {
		// A worker pool is a single SPMD region: one execution at a time.
		capacity = 1
	}
	p.gate = parallel.NewGate(capacity)
	if opt.SelfCheck {
		if ep.tri != nil && p.ord != nil {
			// The fused build held no permuted matrix to audit its split
			// against; this is the option's one extra pass.
			ea, err = p.perm.ApplySym(a)
		}
		if err == nil {
			err = p.audit(ea, ep.tri)
		}
		if err != nil {
			p.Close()
			return nil, err
		}
	}
	p.stats.BuildTime = time.Since(buildStart)
	return p, nil
}

// prepare builds opt's engine for a on the plan's pool — the one
// constructor path of every plan: the ABMC ordering when the engine runs
// on one, then the engine's own preprocessing. It sets the plan's
// engine, ordering, permutation and stage times, and returns the first
// value epoch and the matrix in execution order for the engines that
// wrap one (the forward-backward engine splits a straight into its
// ordering and returns a itself).
func (p *Plan) prepare(a *sparse.CSR, opt Options, runner sparse.Runner) (*planEpoch, *sparse.CSR, error) {
	p.eng = opt.Engine
	ep, ea := &planEpoch{}, a
	if opt.needABMC() {
		// Applying the ordering is the engine's business: fused into the
		// split (forward-backward) or a permuted copy (standard).
		start := time.Now()
		ord, err := reorder.ABMC(a, reorder.ABMCOptions{NumBlocks: opt.NumBlocks, Pool: runner})
		if err != nil {
			return nil, nil, err
		}
		p.stats.ReorderTime = time.Since(start)
		p.stats.GraphTime = ord.GraphTime
		p.stats.ColorTime = ord.ColorTime
		p.stats.NumColors = ord.NumColors
		p.stats.NumBlocks = ord.NumBlocks()
		p.ord, p.perm = ord, ord.Perm
	}
	switch opt.Engine {
	case EngineForwardBackward:
		e, tri, err := newFBEngine(a, p.ord, opt.BtB, p.pool, runner, &p.stats)
		if err != nil {
			return nil, nil, err
		}
		p.engine, ep.tri = e, tri
	case EngineLevelBlocked:
		ls, err := newLevelSchedule(a, opt.LevelBlockBytes, runner)
		if err != nil {
			return nil, nil, err
		}
		e, la, err := newLBEngine(a, ls, p.pool, runner, &p.stats)
		if err != nil {
			return nil, nil, err
		}
		p.engine, p.perm, ea, ep.a = e, ls.perm, la, la
	default: // EngineStandard
		if p.ord != nil {
			permStart := time.Now()
			pa, err := p.perm.ApplySymPool(a, runner)
			if err != nil {
				return nil, nil, err
			}
			p.stats.PermTime = time.Since(permStart)
			p.stats.ReorderTime += p.stats.PermTime
			ea = pa
		}
		tm := newTeam(p.pool)
		p.engine = &stdEngine{team: tm, bounds: parallel.PartitionByPtr(ea.Rows, tm.workers(), ea.RowPtr), nnzA: uint64(len(ea.Val))}
		ep.a = ea
	}
	return ep, ea, nil
}

// audit runs the internal/check invariant validators over the plan's
// preprocessing products; a is the matrix in execution order.
func (p *Plan) audit(a *sparse.CSR, tri *sparse.Triangular) error {
	if err := check.CSR(a); err != nil {
		return err
	}
	if tri != nil {
		if err := check.Split(a, tri); err != nil {
			return err
		}
	}
	if p.perm != nil {
		if err := check.Perm(p.perm); err != nil {
			return err
		}
	}
	if p.ord != nil {
		if err := check.ABMC(p.ord, a); err != nil {
			return err
		}
	}
	if e, ok := p.engine.(*lbEngine); ok {
		if err := e.ls.validatePermuted(a); err != nil {
			return err
		}
	}
	return nil
}

// Close retires the plan: later calls fail with ErrClosed, executions
// already admitted (and callers already queued at the gate) run to
// completion, and once the plan has drained the worker pool is
// released. Safe to call concurrently with executions and with other
// Close calls; idempotent, and every Close call — not just the first —
// returns only after teardown has completed, so a caller returning
// from Close may rely on the worker pool being gone. The registry
// leans on these semantics for safe deferred eviction: a plan may be
// closed by LRU eviction, by Registry.Close, and by a defensive user
// Close without double-teardown.
func (p *Plan) Close() {
	p.closeOne.Do(func() {
		// Drain first (gate.Close blocks until in-flight executions
		// leave), then stop the pool the executions were running on.
		p.gate.Close()
		if p.pool != nil {
			p.pool.Close()
		}
		close(p.closed)
	})
	<-p.closed
}

// Closed reports whether Close has completed. A false return is
// advisory only — a concurrent Close may be in progress — but a true
// return is final: every later execution fails with ErrClosed.
func (p *Plan) Closed() bool {
	select {
	case <-p.closed:
		return true
	default:
		return false
	}
}

// N returns the matrix dimension.
func (p *Plan) N() int { return p.n }

// Stats returns the preprocessing cost breakdown of plan construction
// plus the running UpdateValues counters.
func (p *Plan) Stats() PlanStats {
	s := p.stats
	s.Updates = p.updates.Load()
	s.UpdateTime = time.Duration(p.updateNanos.Load())
	return s
}

// Metrics returns a point-in-time snapshot of the plan's execution
// counters; see PlanMetrics. Safe to call at any time, including
// concurrently with executions. What the build cost and what the
// kernels execute on are PlanStats, not counters.
func (p *Plan) Metrics() PlanMetrics { return p.metrics.snapshot(p.nnzA) }

// StartTrace attaches an event recorder: subsequent executions record
// call, sweep, compute, and barrier spans into it until StopTrace.
// Executions already running keep their previous recorder (possibly
// none). Safe to call at any time; the swap is atomic. The recorder
// should be sized with at least as many worker lanes as the plan has
// threads, or worker spans are silently dropped.
func (p *Plan) StartTrace(r *events.Recorder) error {
	if r == nil {
		return fmt.Errorf("core: StartTrace: nil recorder (use StopTrace to detach)")
	}
	p.rec.Store(r)
	return nil
}

// StopTrace detaches the current recorder and returns it (nil when
// none was attached). Executions already in flight finish recording
// into the detached recorder; capture it after they drain for an exact
// trace.
func (p *Plan) StopTrace() *events.Recorder { return p.rec.Swap(nil) }

// TraceRecorder returns the currently attached recorder, nil when
// tracing is off.
func (p *Plan) TraceRecorder() *events.Recorder { return p.rec.Load() }

// Workers returns the plan's worker-pool size (0 for serial plans) —
// the number of worker lanes a trace recorder for this plan needs.
func (p *Plan) Workers() int {
	if p.pool == nil {
		return 0
	}
	return p.pool.Workers()
}

// Ordering returns the ABMC result when reordering was applied, else
// nil. What the plan holds of the matrix is in this ordering.
func (p *Plan) Ordering() *reorder.ABMCResult { return p.ord }

// Engine returns the engine the plan executes with: Options.Engine,
// with EngineAuto resolved (see Options.Canonical).
func (p *Plan) Engine() Engine { return p.eng }

// exec is the admission wrapper every entry point runs through: it
// takes a gate slot (FIFO-fair, failing with ErrClosed after Close and
// with ctx.Err() if the context fires while queued), pins the current
// value epoch (loaded exactly once, so a concurrent UpdateValues never
// mixes generations within one execution), bridges ctx to the kernel
// cancel flag, loans the caller a pooled workspace, and settles the
// metrics. fn returns the analytic work it performed, counted only on
// success.
func (p *Plan) exec(ctx context.Context, op opKind, fn func(ws *workspace, env *runEnv, ep *planEpoch) (work, error)) error {
	// A request timeline in ctx gets the per-phase attribution of this
	// execution; nil (the common library case) keeps every record below
	// a no-op, so the detached cost is one context lookup.
	tl := events.TimelineFromContext(ctx)
	var gateStart time.Time
	if tl != nil {
		gateStart = time.Now()
	}
	if err := p.gate.Enter(ctx); err != nil {
		if errors.Is(err, parallel.ErrClosed) {
			p.metrics.rejected.Add(1)
			return fmt.Errorf("core: %s: %w", op, ErrClosed)
		}
		p.metrics.canceled.Add(1)
		return fmt.Errorf("core: %s: %w", op, err)
	}
	defer p.gate.Leave()
	p.metrics.inflight.Add(1)
	defer p.metrics.inflight.Add(-1)
	ep := p.state.Load()
	if tl != nil {
		now := time.Now()
		tl.Phase("plan.admission", gateStart, now)
		tl.Mark("plan.epoch", now, int64(ep.seq))
	}

	env := &runEnv{met: &p.metrics, lane: -1}
	if rec := p.rec.Load(); rec != nil {
		env.rec = rec
		env.lane, env.seq = rec.AcquireLane()
		defer rec.ReleaseLane(env.lane)
	}
	if ctx != nil && ctx.Done() != nil {
		// A context already done fails deterministically before any
		// kernel work; one set mid-run is observed at barriers instead.
		if err := ctx.Err(); err != nil {
			p.metrics.canceled.Add(1)
			return fmt.Errorf("core: %s canceled: %w", op, err)
		}
		flag := &cancelFlag{}
		stop := context.AfterFunc(ctx, flag.set)
		defer stop()
		env.flag = flag
	}
	ws := p.acquire()
	start := time.Now()
	wk, err := fn(ws, env, ep)
	end := time.Now()
	elapsed := end.Sub(start)
	if env.rec != nil {
		env.rec.SpanTagged(env.lane, events.KindCall, opNames[op], -1, env.seq, start, end, tl.TraceID())
	}
	tl.Phase("plan.execute", start, end)
	p.metrics.callNanos.Add(elapsed.Nanoseconds())
	p.release(ws)
	if err != nil {
		if errors.Is(err, errCanceledRun) {
			p.metrics.canceled.Add(1)
			cause := context.Canceled
			if ctx != nil && ctx.Err() != nil {
				cause = ctx.Err()
			}
			return fmt.Errorf("core: %s canceled: %w", op, cause)
		}
		return err
	}
	p.metrics.calls[op].Add(1)
	p.metrics.hist[op].observe(elapsed)
	p.metrics.add(wk)
	return nil
}

// permIn returns x in the plan's execution order (x itself when the
// plan did not reorder), using the workspace's input scratch.
func (p *Plan) permIn(ws *workspace, x []float64) []float64 {
	if p.perm == nil {
		return x
	}
	px := ws.vec(p.n)
	p.perm.ApplyVec(x, px)
	return px
}

// permOut returns the execution-order vector v in the original row
// ordering: a fresh vector when the plan reordered, else v itself.
func (p *Plan) permOut(v []float64) []float64 {
	if p.perm == nil {
		return v
	}
	out := make([]float64, p.n)
	p.perm.UnapplyVec(v, out)
	return out
}

// permBlock maps every vector of a block through the plan's
// permutation — apply is reorder.Perm.ApplyVec on the way in,
// UnapplyVec on the way out — into fresh vectors; the block itself when
// the plan did not reorder.
func (p *Plan) permBlock(vs [][]float64, apply func(reorder.Perm, []float64, []float64)) [][]float64 {
	if p.perm == nil {
		return vs
	}
	out := make([][]float64, len(vs))
	for j, v := range vs {
		out[j] = make([]float64, p.n)
		apply(p.perm, v, out[j])
	}
	return out
}

// MPK computes A^k x0 and returns it in the ORIGINAL row ordering,
// regardless of internal reordering.
func (p *Plan) MPK(x0 []float64, k int) ([]float64, error) {
	return p.MPKCtx(context.Background(), x0, k)
}

// MPKCtx is MPK honoring ctx: cancellation is observed while queued at
// the admission gate and, once running, at every color-barrier
// boundary of the pipeline, returning an error wrapping ctx.Err().
func (p *Plan) MPKCtx(ctx context.Context, x0 []float64, k int) ([]float64, error) {
	var xk []float64
	err := p.exec(ctx, opMPK, func(ws *workspace, env *runEnv, ep *planEpoch) (wk work, err error) {
		xk, wk, err = p.run(ws, env, ep, x0, k, nil)
		return wk, err
	})
	if err != nil {
		return nil, err
	}
	return xk, nil
}

// SymGS applies sweeps symmetric Gauss-Seidel iterations for A x = b,
// updating x in place (both in the original row ordering). The
// smoother shares the plan's L+D+U split and, for parallel plans, its
// ABMC coloring — the SYMGS connection of Sections III-A and VII.
// Requires a forward-backward plan (the split is not built for the
// other engines). Rows with zero diagonal are skipped.
func (p *Plan) SymGS(b, x []float64, sweeps int) error {
	return p.SymGSCtx(context.Background(), b, x, sweeps)
}

// SymGSCtx is SymGS honoring ctx. On cancellation the contents of x
// are unspecified.
func (p *Plan) SymGSCtx(ctx context.Context, b, x []float64, sweeps int) error {
	fb, ok := p.engine.(*fbEngine)
	if !ok {
		return fmt.Errorf("core: SymGS requires the forward-backward engine: %w", ErrNoSplit)
	}
	if len(b) != p.n || len(x) != p.n {
		return fmt.Errorf("core: SymGS (n=%d, b=%d, x=%d): %w", p.n, len(b), len(x), ErrDimension)
	}
	return p.exec(ctx, opSymGS, func(ws *workspace, env *runEnv, ep *planEpoch) (work, error) {
		pb, pxv := b, x
		if p.perm != nil {
			pb = ws.vec(p.n)
			pxv = ws.vec2(p.n)
			p.perm.ApplyVec(b, pb)
			p.perm.ApplyVec(x, pxv)
		}
		if err := symGS(fb.sch, env, ep.tri, pb, pxv, sweeps); err != nil {
			return work{}, err
		}
		if p.perm != nil {
			p.perm.UnapplyVec(pxv, x)
		}
		// One symmetric sweep streams L, D, U twice (forward + backward
		// half-sweeps): 2 nnzA per sweep, 2 SpMV-equivalents.
		s := uint64(sweeps)
		return work{sweeps: 2 * s, spmvs: 2 * s, nnz: [numPhases]uint64{phaseSymGS: 2 * s * p.nnzA}}, nil
	})
}

// MPKAll computes the full Krylov-style sequence x0, Ax0, ..., A^k x0
// and returns k+1 fresh vectors in the original row ordering — the
// building block of s-step Krylov methods (the related-work use case
// of Section VI). Memory: allocates (k+1) n-vectors.
func (p *Plan) MPKAll(x0 []float64, k int) ([][]float64, error) {
	return p.MPKAllCtx(context.Background(), x0, k)
}

// MPKAllCtx is MPKAll honoring ctx.
func (p *Plan) MPKAllCtx(ctx context.Context, x0 []float64, k int) ([][]float64, error) {
	if err := checkPowers(p.n, len(x0), k, nil); err != nil {
		return nil, err
	}
	var out [][]float64
	err := p.exec(ctx, opMPKAll, func(ws *workspace, env *runEnv, ep *planEpoch) (work, error) {
		out = make([][]float64, k+1)
		out[0] = sparse.CopyVec(x0)
		hook := func(power int, x []float64) {
			if p.perm != nil {
				out[power] = p.permOut(x)
			} else {
				out[power] = sparse.CopyVec(x)
			}
		}
		if _, err := p.engine.powers(ws, env, ep, p.permIn(ws, x0), k, nil, hook); err != nil {
			return work{}, err
		}
		return p.engine.traffic(k, 1, false), nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MPKMulti computes A^k x_j for a block of m start vectors with one
// batched pipeline pass, returning m fresh vectors in the original row
// ordering. For forward-backward plans this is the batched FBMPK
// engine: every sweep of L/U advances all m vectors, so each matrix
// read serves 2*m SpMV applications (asymptotically 1/(2m) reads of A
// per SpMV, versus 1 for plain MPK and 1/2 for single-vector FBMPK).
// Standard-engine plans run one SpMM sweep per power on the plan's
// team, which amortizes across vectors but not across powers.
func (p *Plan) MPKMulti(xs [][]float64, k int) ([][]float64, error) {
	return p.MPKMultiCtx(context.Background(), xs, k)
}

// MPKMultiCtx is MPKMulti honoring ctx.
func (p *Plan) MPKMultiCtx(ctx context.Context, xs [][]float64, k int) ([][]float64, error) {
	var xks [][]float64
	err := p.exec(ctx, opMPKMulti, func(ws *workspace, env *runEnv, ep *planEpoch) (wk work, err error) {
		xks, wk, err = p.runMulti(ws, env, ep, xs, k, nil)
		return wk, err
	})
	if err != nil {
		return nil, err
	}
	return xks, nil
}

// SSpMVMulti computes, for every start vector x_j in the block,
// combo_j = sum_{i=0..len(coeffs)-1} coeffs[i] * A^i * x_j as m fresh
// vectors in the original row ordering: one batched pass on a forward-
// backward plan, one pass per vector on the others. The same coefficients
// apply to every vector (block polynomial filters, s-step Krylov).
func (p *Plan) SSpMVMulti(coeffs []float64, xs [][]float64) ([][]float64, error) {
	return p.SSpMVMultiCtx(context.Background(), coeffs, xs)
}

// SSpMVMultiCtx is SSpMVMulti honoring ctx.
func (p *Plan) SSpMVMultiCtx(ctx context.Context, coeffs []float64, xs [][]float64) ([][]float64, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("core: SSpMVMulti needs at least one coefficient: %w", ErrBadCoeffs)
	}
	var combos [][]float64
	err := p.exec(ctx, opSSpMVMulti, func(ws *workspace, env *runEnv, ep *planEpoch) (wk work, err error) {
		if len(coeffs) == 1 {
			// Degree 0 (see SSpMVCtx).
			if _, err := checkMulti(p.n, xs, 1, nil); err != nil {
				return work{}, err
			}
			combos = make([][]float64, len(xs))
			for j, x := range xs {
				combos[j] = scaled(coeffs[0], x)
			}
			return work{}, nil
		}
		combos, wk, err = p.runMulti(ws, env, ep, xs, len(coeffs)-1, coeffs)
		return wk, err
	})
	if err != nil {
		return nil, err
	}
	return combos, nil
}

// runMulti is a batched engine run: permute in, k powers (or, with
// coeffs, only the combinations), permute out.
func (p *Plan) runMulti(ws *workspace, env *runEnv, ep *planEpoch, xs [][]float64, k int, coeffs []float64) ([][]float64, work, error) {
	m, err := checkMulti(p.n, xs, k, coeffs)
	if err != nil {
		return nil, work{}, err
	}
	out, err := p.engine.powersMulti(ws, env, ep, p.permBlock(xs, reorder.Perm.ApplyVec), k, coeffs)
	if err != nil {
		return nil, work{}, err
	}
	return p.permBlock(out, reorder.Perm.UnapplyVec), p.engine.traffic(k, m, coeffs != nil), nil
}

// SSpMV computes sum_{i=0..len(coeffs)-1} coeffs[i] * A^i * x0 in the
// original row ordering.
func (p *Plan) SSpMV(coeffs, x0 []float64) ([]float64, error) {
	return p.SSpMVCtx(context.Background(), coeffs, x0)
}

// SSpMVCtx is SSpMV honoring ctx.
func (p *Plan) SSpMVCtx(ctx context.Context, coeffs, x0 []float64) ([]float64, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("core: SSpMV needs at least one coefficient: %w", ErrBadCoeffs)
	}
	if len(x0) != p.n {
		return nil, fmt.Errorf("core: x0 length %d != n %d: %w", len(x0), p.n, ErrDimension)
	}
	var combo []float64
	err := p.exec(ctx, opSSpMV, func(ws *workspace, env *runEnv, ep *planEpoch) (wk work, err error) {
		if len(coeffs) == 1 {
			// Degree 0 is pure scaling: independent of row order, so no
			// matrix pass and no permutation round-trip — but still an
			// execution, admitted and counted like any other (a closed
			// plan refuses it, a done context cancels it), with zero work.
			combo = scaled(coeffs[0], x0)
			return work{}, nil
		}
		combo, wk, err = p.run(ws, env, ep, x0, len(coeffs)-1, coeffs)
		return wk, err
	})
	if err != nil {
		return nil, err
	}
	return combo, nil
}

// SSpMVComplex evaluates y = sum coeffs[i] * A^i * x0 for complex
// coefficients (the paper's FBMPK library supports "real or complex
// constants", Section I). A is real, so y splits into independent real
// and imaginary combinations accumulated in one pipeline pass.
func (p *Plan) SSpMVComplex(coeffs []complex128, x0 []float64) (re, im []float64, err error) {
	return p.SSpMVComplexCtx(context.Background(), coeffs, x0)
}

// SSpMVComplexCtx is SSpMVComplex honoring ctx.
func (p *Plan) SSpMVComplexCtx(ctx context.Context, coeffs []complex128, x0 []float64) (re, im []float64, err error) {
	if len(coeffs) == 0 {
		return nil, nil, fmt.Errorf("core: SSpMVComplex needs at least one coefficient: %w", ErrBadCoeffs)
	}
	if len(x0) != p.n {
		return nil, nil, fmt.Errorf("core: x0 length %d != n %d: %w", len(x0), p.n, ErrDimension)
	}
	k := len(coeffs) - 1
	err = p.exec(ctx, opSSpMVComplex, func(ws *workspace, env *runEnv, ep *planEpoch) (work, error) {
		// The hook sees iterates in the plan's execution ordering, so the
		// accumulators live in that ordering too (scaling commutes with
		// the permutation) and unpermute once at the end.
		in := p.permIn(ws, x0)
		re, im = scaled(real(coeffs[0]), in), scaled(imag(coeffs[0]), in)
		if k == 0 {
			re, im = p.permOut(re), p.permOut(im)
			return work{}, nil
		}
		hook := func(power int, x []float64) {
			if c := real(coeffs[power]); c != 0 {
				sparse.AXPY(c, x, re)
			}
			if c := imag(coeffs[power]); c != 0 {
				sparse.AXPY(c, x, im)
			}
		}
		if _, err := p.engine.powers(ws, env, ep, in, k, nil, hook); err != nil {
			return work{}, err
		}
		re, im = p.permOut(re), p.permOut(im)
		return p.engine.traffic(k, 1, false), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return re, im, nil
}

// run is a single-vector engine run: permute in, k powers (or, with
// coeffs, only the combination), permute out.
func (p *Plan) run(ws *workspace, env *runEnv, ep *planEpoch, x0 []float64, k int, coeffs []float64) ([]float64, work, error) {
	if len(x0) != p.n {
		return nil, work{}, fmt.Errorf("core: x0 length %d != n %d: %w", len(x0), p.n, ErrDimension)
	}
	out, err := p.engine.powers(ws, env, ep, p.permIn(ws, x0), k, coeffs, nil)
	if err != nil {
		return nil, work{}, err
	}
	return p.permOut(out), p.engine.traffic(k, 1, false), nil
}
