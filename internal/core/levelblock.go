package core

import (
	"fmt"
	"time"

	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// Level-blocked MPK engine (ROADMAP item 3, following Alappat et al.,
// arXiv 2205.01598). FBMPK halves reads of A per SpMV but still
// streams the whole matrix once per pipeline pass; level blocking
// attacks the orthogonal axis: consecutive BFS levels are grouped into
// cache-sized blocks and all k powers execute over a block while it is
// resident, so in the ideal case A crosses the memory bus about once
// for the whole k-power sequence instead of k (standard) or (k+1)/2
// (FBMPK) times. The cost is k+1 live iterate vectors (FBMPK keeps
// two) — the trade the paper discusses in Section VI, reproducible
// quantitatively with cachesim.TraceLevelBlockedMPK.
//
// Schedule. Rows are permuted level-contiguously (perm = lp.Rows);
// blocks are groups of consecutive levels, so block b covers the
// permuted row range [LevelPtr[blockPtr[b]], LevelPtr[blockPtr[b+1]]).
// Tile (l, p) — power p over level l — is assigned the key l+p-1 and
// runs in the pass whose key window contains it: pass b owns keys
// [ext[b], ext[b+1]) with ext = [blockPtr[0..B], nl+k-1], i.e. one
// pass per block plus one epilogue pass draining the skewed tail.
// Within a pass, powers run in order p = 1..k, power p covering levels
// [ext[b]-(p-1), ext[b+1]-(p-1)) clamped to [0, nl) — a parallelogram
// skewed against the level axis, exactly the shape that keeps every
// dependency local: tile (l, p) needs power p-1 of levels l-1, l, l+1
// (keys l+p-3 .. l+p-1), which run either in an earlier pass or at
// step p-1 of the same pass. All tiles of one (pass, power) step are
// mutually independent plain-SpMV rows, which is where the worker pool
// parallelizes; one barrier per step orders step against step.

const (
	// DefaultLevelBlockBytes is the block budget used when
	// WithLevelBlockBytes is not given: half of the reference Xeon L3
	// the cache simulator models (cachesim.ConfigXeon.SizeBytes / 2),
	// leaving the other half for the live iterate-vector window. Kept
	// as a literal because core cannot import cachesim (cachesim's
	// trace tests import core); cachesim's
	// TestDefaultLevelBlockBytesMatchesXeon asserts the two stay in sync.
	DefaultLevelBlockBytes = 37_486_592 / 2

	// DefaultTuneK is the power the EngineAuto arbitration optimizes
	// for: deep enough that level blocking's per-block reuse can pay for
	// its schedule overhead, shallow enough to stay representative of
	// s-step solver practice.
	DefaultTuneK = 4
)

// levelSchedule is the preprocessing product of the level-blocked
// engine: the BFS level partition of the original matrix (whose Rows
// array doubles as the level permutation) and the grouping of levels
// into cache-budget blocks. Structure-only and immutable after
// construction, like the ABMC schedule.
type levelSchedule struct {
	lp   *LevelPartition // of the ORIGINAL matrix; lp.Rows = perm
	perm reorder.Perm
	// blockPtr groups consecutive levels: block b covers levels
	// [blockPtr[b], blockPtr[b+1]), and blockPtr[len-1] = NumLevels.
	blockPtr []int32
	bytes    int // resolved block budget
}

func (ls *levelSchedule) numBlocks() int { return len(ls.blockPtr) - 1 }

// newLevelSchedule computes BFS levels of a and groups them into
// blocks of at most blockBytes of matrix data (already resolved, see
// Options.Canonical). Blocks always align to level boundaries and hold
// at least one level, so a single level larger than the budget becomes
// its own (oversized) block.
func newLevelSchedule(a *sparse.CSR, blockBytes int) (*levelSchedule, error) {
	lp, err := BFSLevels(a)
	if err != nil {
		return nil, err
	}
	return &levelSchedule{
		lp:       lp,
		perm:     reorder.Perm(lp.Rows),
		blockPtr: GroupLevels(a, lp, blockBytes),
		bytes:    blockBytes,
	}, nil
}

// GroupLevels greedily packs consecutive BFS levels into blocks whose
// matrix footprint (12 bytes per stored entry + 8 per row) stays
// within blockBytes, returning blockPtr: block b covers levels
// [blockPtr[b], blockPtr[b+1]). Every block holds at least one level.
// Exported so the cache simulator and tools can replay the exact
// grouping the engine executes.
func GroupLevels(a *sparse.CSR, lp *LevelPartition, blockBytes int) []int32 {
	nl := lp.NumLevels()
	blockPtr := make([]int32, 1, 8)
	acc := int64(0)
	for l := 0; l < nl; l++ {
		var nnz int64
		for _, r := range lp.Rows[lp.LevelPtr[l]:lp.LevelPtr[l+1]] {
			nnz += a.RowPtr[r+1] - a.RowPtr[r]
		}
		lb := 12*nnz + 8*int64(lp.LevelPtr[l+1]-lp.LevelPtr[l])
		if acc > 0 && acc+lb > int64(blockBytes) {
			blockPtr = append(blockPtr, int32(l))
			acc = 0
		}
		acc += lb
	}
	return append(blockPtr, int32(nl))
}

// passBounds returns the key window [lo, hi) of pass b: the block's
// level range for real passes, [nl, nl+k-1) for the epilogue pass
// b == numBlocks (empty when k == 1).
func (ls *levelSchedule) passBounds(b, k int) (int, int) {
	lo := int(ls.blockPtr[b])
	if b+1 < len(ls.blockPtr) {
		return lo, int(ls.blockPtr[b+1])
	}
	return lo, ls.lp.NumLevels() + k - 1
}

// stepRange returns the permuted row range of power p in pass b, empty
// (lo >= hi) when the skewed window falls outside the level range.
func (ls *levelSchedule) stepRange(bLo, bHi, p int) (int, int) {
	nl := ls.lp.NumLevels()
	lo := max(0, min(bLo-(p-1), nl))
	hi := max(0, min(bHi-(p-1), nl))
	if lo >= hi {
		return 0, 0
	}
	return int(ls.lp.LevelPtr[lo]), int(ls.lp.LevelPtr[hi])
}

// hookPowers returns the powers [pLo, pHi) that complete in pass b:
// power p finishes when its last tile (nl-1, p), key nl+p-2, falls in
// the pass's key window.
func hookPowers(bLo, bHi, nl, k int) (int, int) {
	pLo := bLo - nl + 2
	if pLo < 1 {
		pLo = 1
	}
	pHi := bHi - nl + 2
	if pHi > k+1 {
		pHi = k + 1
	}
	return pLo, pHi
}

// levelBlockedPowers runs the skewed block schedule over the
// level-permuted matrix a. xs holds the k+1 live iterate vectors with
// xs[0] already filled (permuted order); on return xs[k] = A^k x0 in
// permuted order. Within each (pass, power) step all rows are
// independent, so the team's workers split the step's row range evenly
// and barrier between steps; each row is one sparse.SpMVRange dot
// product — the standard engine's kernel, its four accumulators joined
// in a fixed order — so results are bitwise identical for any worker
// count. onIterate observes each power a pass completed, ascending, on
// worker 0.
func levelBlockedPowers(tm team, env *runEnv, a *sparse.CSR, ls *levelSchedule, xs [][]float64, k int, onIterate IterateFunc) error {
	nl := ls.lp.NumLevels()
	if nl == 0 {
		// Empty matrix: every power is the empty vector.
		if onIterate != nil {
			for p := 1; p <= k; p++ {
				onIterate(p, xs[p])
			}
		}
		return nil
	}
	nb := ls.numBlocks()
	w := tm.workers()
	tm.run(bodyFunc(func(id int) {
		clock := tm.clock(env, id)
		skip := false
		for b := 0; b <= nb; b++ {
			bLo, bHi := ls.passBounds(b, k)
			clock.beginSweep(phaseLevel)
			for p := 1; p <= k; p++ {
				lo, hi := ls.stepRange(bLo, bHi, p)
				if lo >= hi {
					// Empty step: every worker computes the same bounds,
					// so all skip the barrier consistently.
					continue
				}
				if !skip {
					wLo := lo + (hi-lo)*id/w
					wHi := lo + (hi-lo)*(id+1)/w
					sparse.SpMVRange(a, xs[p-1], xs[p], wLo, wHi)
				}
				tm.sync(clock, phaseLevel, int32(b))
				if !skip && env.canceled() {
					skip = true
				}
			}
			if onIterate != nil {
				pLo, pHi := hookPowers(bLo, bHi, nl, k)
				if pLo < pHi {
					// Later steps only read completed powers, so the hook
					// could run concurrently — but the extra barrier keeps
					// the capture protocol identical to the other engines.
					if id == 0 && !skip {
						for p := pLo; p < pHi; p++ {
							onIterate(p, xs[p])
						}
					}
					tm.sync(clock, phaseLevel, int32(b))
				}
			}
			clock.endSweep(phaseLevel, int32(b))
		}
		clock.flush()
	}))
	if env.canceled() {
		return errCanceledRun
	}
	return nil
}

// validatePermuted audits the schedule against the level-permuted
// matrix: permuted rows must be level-contiguous and every entry must
// connect levels at most one apart — the property the skewed schedule's
// dependency argument rests on.
func (ls *levelSchedule) validatePermuted(pa *sparse.CSR) error {
	lptr := ls.lp.LevelPtr
	nl := ls.lp.NumLevels()
	levelOf := make([]int32, pa.Rows)
	for l := 0; l < nl; l++ {
		for i := lptr[l]; i < lptr[l+1]; i++ {
			levelOf[i] = int32(l)
		}
	}
	for i := 0; i < pa.Rows; i++ {
		cols, _ := pa.Row(i)
		for _, c := range cols {
			d := levelOf[i] - levelOf[c]
			if d < -1 || d > 1 {
				return fmt.Errorf("core: level-blocked schedule: permuted entry (%d,%d) spans levels %d and %d",
					i, c, levelOf[i], levelOf[c])
			}
		}
	}
	return nil
}

// LevelBlockedMPK computes A^k x0 with the serial level-blocked
// schedule — the standalone form of EngineLevelBlocked used by tests,
// tools, and the cache-model validation; plans built with the engine
// add worker-pool parallelism, pooled workspaces, and admission on
// top of the identical schedule. blockBytes <= 0 selects
// DefaultLevelBlockBytes. onIterate observes each completed power in
// the ORIGINAL row ordering (the slice is kernel scratch — copy it to
// retain it).
func LevelBlockedMPK(a *sparse.CSR, x0 []float64, k int, blockBytes int, onIterate IterateFunc) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("core: LevelBlockedMPK: %w", sparse.ErrNotSquare)
	}
	if err := checkPowers(a.Rows, len(x0), k, nil); err != nil {
		return nil, err
	}
	opt := Options{Engine: EngineLevelBlocked, LevelBlockBytes: blockBytes}.Canonical()
	ls, err := newLevelSchedule(a, opt.LevelBlockBytes)
	if err != nil {
		return nil, err
	}
	pa, err := ls.perm.ApplySym(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	xs := make([][]float64, k+1)
	for p := range xs {
		xs[p] = make([]float64, n)
	}
	ls.perm.ApplyVec(x0, xs[0])
	var hook IterateFunc
	var scratch []float64
	if onIterate != nil {
		scratch = make([]float64, n)
		hook = func(power int, x []float64) {
			ls.perm.UnapplyVec(x, scratch)
			onIterate(power, scratch)
		}
	}
	if err := levelBlockedPowers(team{}, nil, pa, ls, xs, k, hook); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	ls.perm.UnapplyVec(xs[k], out)
	return out, nil
}

// lbEngine is the level-blocked engine of a plan. The kernel reads the
// epoch's raw level-ordered CSR: the skewed step ranges move every
// pass, which the chunk/block-aligned SELL and BSR range kernels could
// not serve.
type lbEngine struct {
	team team
	ls   *levelSchedule
	nnzA uint64
}

// newLBEngine runs the level-blocked preprocessing on the original
// matrix a — BFS levels, the level-contiguous permutation, the
// cache-budget block grouping — and returns the engine with the matrix
// in its execution order.
func newLBEngine(a *sparse.CSR, blockBytes int, pool *parallel.Pool, runner sparse.Runner, stats *PlanStats) (*lbEngine, *sparse.CSR, error) {
	start := time.Now()
	ls, err := newLevelSchedule(a, blockBytes)
	if err != nil {
		return nil, nil, err
	}
	permStart := time.Now()
	stats.GraphTime = permStart.Sub(start)
	ea, err := ls.perm.ApplySymPool(a, runner)
	if err != nil {
		return nil, nil, err
	}
	stats.PermTime = time.Since(permStart)
	stats.ReorderTime = time.Since(start)
	stats.NumBlocks = ls.numBlocks()
	stats.NumLevels = ls.lp.NumLevels()
	return &lbEngine{team: newTeam(pool), ls: ls, nnzA: uint64(len(ea.Val))}, ea, nil
}

func (e *lbEngine) revalue(cur *planEpoch, src []float64, slot []int64) *planEpoch {
	a := *cur.a
	a.Val = gatherValues(src, slot)
	return &planEpoch{a: &a}
}

// powers runs the schedule with k+1 pooled live iterates. The returned
// xk aliases workspace scratch — the plan unpermutes (copying) before
// it escapes.
func (e *lbEngine) powers(ws *workspace, env *runEnv, ep *planEpoch, in []float64, k int, coeffs []float64, hook IterateFunc) (xk, combo []float64, err error) {
	if err := checkPowers(len(in), len(in), k, coeffs); err != nil {
		return nil, nil, err
	}
	if coeffs != nil {
		combo, hook = comboHook(coeffs, in)
	}
	xs := ws.lvl(len(in), k)
	copy(xs[0], in)
	if err := levelBlockedPowers(e.team, env, ep.a, e.ls, xs, k, hook); err != nil {
		return nil, nil, err
	}
	return xs[k], combo, nil
}

// powersMulti is one schedule pass per vector: the pipeline keeps k+1
// iterates live per vector, so the batch runs sequentially over vectors
// rather than widening the working set m-fold.
func (e *lbEngine) powersMulti(ws *workspace, env *runEnv, ep *planEpoch, in [][]float64, k int, coeffs []float64) (xks, combos [][]float64, err error) {
	xks = make([][]float64, len(in))
	if coeffs != nil {
		combos = make([][]float64, len(in))
	}
	for j, x := range in {
		xk, combo, err := e.powers(ws, env, ep, x, k, coeffs, nil)
		if err != nil {
			return nil, nil, err
		}
		xks[j] = sparse.CopyVec(xk)
		if coeffs != nil {
			combos[j] = combo
		}
	}
	return xks, combos, nil
}

// traffic: the kernel runs one plain SpMV per (power, vector) — 1 read
// of A per SpMV through the cache hierarchy. Its saving is DRAM
// residency, accounted by cachesim, not here.
func (e *lbEngine) traffic(k, m int, _ bool) work {
	return work{sweeps: uint64(k), spmvs: uint64(k) * uint64(m), nnz: [numPhases]uint64{phaseLevel: uint64(k) * uint64(m) * e.nnzA}}
}
