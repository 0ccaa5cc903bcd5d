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

// DefaultLevelBlockBytes is the block budget used when
// WithLevelBlockBytes is not given: half of the reference Xeon L3
// the cache simulator models (cachesim.ConfigXeon.SizeBytes / 2),
// leaving the other half for the live iterate-vector window. Kept
// as a literal because core cannot import cachesim (cachesim's
// trace tests import core); cachesim's
// TestDefaultLevelBlockBytesMatchesXeon asserts the two stay in sync.
const DefaultLevelBlockBytes = 37_486_592 / 2

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
	bytes    int           // resolved block budget
	took     time.Duration // what computing the schedule cost (PlanStats.GraphTime)
}

func (ls *levelSchedule) numBlocks() int { return len(ls.blockPtr) - 1 }

// newLevelSchedule computes BFS levels of a, the adjacency built on r's
// workers (nil = serial), and groups them into blocks of at most
// blockBytes of matrix data (already resolved, see Options.Canonical).
// Blocks always align to level boundaries and hold at least one level,
// so a single level larger than the budget becomes its own (oversized)
// block.
func newLevelSchedule(a *sparse.CSR, blockBytes int, r sparse.Runner) (*levelSchedule, error) {
	start := time.Now()
	lp, err := bfsLevels(a, r)
	if err != nil {
		return nil, err
	}
	return &levelSchedule{
		lp:       lp,
		perm:     reorder.Perm(lp.Rows),
		blockPtr: GroupLevels(a, lp, blockBytes),
		bytes:    blockBytes,
		took:     time.Since(start),
	}, nil
}

// permute returns the level-ordered matrix P·A·Pᵀ of a (P = lp.Rows),
// bitwise what reorder.Perm.ApplySym returns, without sorting a row.
// Rows lists a level's rows in source order, so the new column numbers
// ascend with the old inside one level, and every entry of a level-l row
// has its column in level l-1, l or l+1, whose new numbers lie wholly
// below, within and above row l's own level. A permuted row is therefore
// its source row split stably into those three buckets and concatenated,
// which one pass counts and a second places — row-parallel over r (nil =
// serial), each row into its own precomputed range. The bucket index is
// also the check: an entry whose column lies two or more levels away
// fails the call with ErrInvalidMatrix before anything is indexed by it.
func (ls *levelSchedule) permute(a *sparse.CSR, r sparse.Runner) (*sparse.CSR, error) {
	n, level, perm, inv := a.Rows, ls.lp.Level, ls.lp.Rows, ls.perm.Inverse()
	b := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1),
		ColIdx: make([]int32, a.NNZ()), Val: make([]float64, a.NNZ())}
	for i, old := range perm {
		b.RowPtr[i+1] = b.RowPtr[i] + a.RowPtr[old+1] - a.RowPtr[old]
	}
	colIdx, val := b.ColIdx, b.Val
	// Ranges ascend with the worker id, so the first error by id is the
	// one at the lowest row, whatever the worker count.
	errs := make([]error, 1)
	if r != nil {
		errs = make([]error, r.Workers())
	}
	sparse.ForRanges(r, 0, n, func(id, start, end int) {
		for i := start; i < end; i++ {
			src := a.RowPtr[perm[i]]
			cols := a.ColIdx[src:a.RowPtr[perm[i]+1]]
			below := level[perm[i]] - 1
			// Bucket d of an entry is 0, 1 or 2, so sum(d) = n1 + 2·n2
			// and sum(d>>1) = n2.
			var sum, n2 int64
			for _, c := range cols {
				d := uint32(level[c] - below)
				if d > 2 {
					errs[id] = fmt.Errorf("core: level-blocked build: entry (%d,%d) spans levels %d and %d: %w",
						perm[i], c, below+1, level[c], ErrInvalidMatrix)
					return
				}
				sum += int64(d)
				n2 += int64(d >> 1)
			}
			// Where each bucket starts; a fourth slot lets d&3 index it
			// without a bounds check.
			n1 := sum - 2*n2
			at := [4]int64{b.RowPtr[i], b.RowPtr[i+1] - n2 - n1, b.RowPtr[i+1] - n2}
			vals := a.Val[src : src+int64(len(cols))]
			for k, c := range cols {
				d := uint32(level[c]-below) & 3
				colIdx[at[d]], val[at[d]] = inv[c], vals[k]
				at[d]++
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return b, nil
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
			clock.beginSweep()
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

// lbEngine is the level-blocked engine of a plan. The kernel reads the
// epoch's level-ordered CSR over skewed step ranges that move every
// pass.
type lbEngine struct {
	team team
	ls   *levelSchedule
	nnzA uint64
}

// newLBEngine finishes the level-blocked preprocessing of the original
// matrix a on its level schedule ls (BFS levels and cache-budget block
// grouping): it applies the level-contiguous permutation, on the plan's
// workers (runner; nil = serial), and returns the engine with the
// matrix in its execution order.
func newLBEngine(a *sparse.CSR, ls *levelSchedule, pool *parallel.Pool, runner sparse.Runner, stats *PlanStats) (*lbEngine, *sparse.CSR, error) {
	start := time.Now()
	ea, err := ls.permute(a, runner)
	if err != nil {
		return nil, nil, err
	}
	stats.GraphTime = ls.took
	stats.PermTime = time.Since(start)
	stats.ReorderTime = stats.GraphTime + stats.PermTime
	stats.NumBlocks = ls.numBlocks()
	stats.NumLevels = ls.lp.NumLevels()
	return &lbEngine{team: newTeam(pool), ls: ls, nnzA: uint64(len(ea.Val))}, ea, nil
}

func (e *lbEngine) revalue(cur *planEpoch, src []float64, slot []int64) *planEpoch {
	a := *cur.a
	a.Val = gatherValues(src, slot)
	return &planEpoch{a: &a}
}

// powers runs the schedule with k+1 pooled live iterates. A returned
// A^k in aliases workspace scratch — the plan unpermutes (copying)
// before it escapes.
func (e *lbEngine) powers(ws *workspace, env *runEnv, ep *planEpoch, in []float64, k int, coeffs []float64, hook IterateFunc) ([]float64, error) {
	if err := checkPowers(len(in), len(in), k, coeffs); err != nil {
		return nil, err
	}
	var combo []float64
	if coeffs != nil {
		combo, hook = comboHook(coeffs, in)
	}
	xs := ws.lvl(len(in), k)
	copy(xs[0], in)
	if err := levelBlockedPowers(e.team, env, ep.a, e.ls, xs, k, hook); err != nil {
		return nil, err
	}
	if hook != nil {
		return combo, nil // nil when the caller's own hook saw the iterates
	}
	return xs[k], nil
}

// powersMulti is one schedule pass per vector: the pipeline keeps k+1
// iterates live per vector, so the batch runs sequentially over vectors
// rather than widening the working set m-fold.
func (e *lbEngine) powersMulti(ws *workspace, env *runEnv, ep *planEpoch, in [][]float64, k int, coeffs []float64) ([][]float64, error) {
	return eachVector(e, ws, env, ep, in, k, coeffs)
}

// traffic: the kernel runs one plain SpMV per (power, vector) — 1 read
// of A per SpMV through the cache hierarchy. Its saving is DRAM
// residency, accounted by cachesim, not here.
func (e *lbEngine) traffic(k, m int, _ bool) work {
	return work{sweeps: uint64(k), spmvs: uint64(k) * uint64(m), nnz: [numPhases]uint64{phaseLevel: uint64(k) * uint64(m) * e.nnzA}}
}
