// Package core implements the paper's contribution: the
// forward-backward matrix-power kernel (FBMPK) with the back-to-back
// vector layout and ABMC-based parallelization, plus the standard MPK
// baseline it is evaluated against, and the generic SSpMV form
// y = sum_i alpha_i A^i x both engines support.
package core

import (
	"fmt"

	"fbmpk/internal/parallel"
	"fbmpk/internal/sparse"
)

// IterateFunc receives each completed MPK iterate: power is the
// exponent (1..k) and x the iterate A^power x0. The slice is scratch
// owned by the kernel — copy it to retain it.
type IterateFunc func(power int, x []float64)

// StandardMPK is the baseline of Algorithm 1: k back-to-back SpMV
// invocations xi = A*x_{i-1}, reading the full matrix k times. The
// result A^k x0 is returned in a fresh slice. onIterate, when non-nil,
// observes every iterate including the last. It keeps its own
// straight-line loop: this is the oracle every differential suite and
// the benchmark compare against, not an execution path of the engines.
func StandardMPK(a *sparse.CSR, x0 []float64, k int, onIterate IterateFunc) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("core: StandardMPK: %w", sparse.ErrNotSquare)
	}
	if err := checkPowers(a.Rows, len(x0), k, nil); err != nil {
		return nil, err
	}
	x := sparse.CopyVec(x0)
	y := make([]float64, a.Rows)
	for power := 1; power <= k; power++ {
		sparse.SpMV(a, x, y)
		x, y = y, x
		if onIterate != nil {
			onIterate(power, x)
		}
	}
	return x, nil
}

// StandardMPKParallel is the baseline with a row-parallel SpMV kernel:
// rows are partitioned by nonzero count once, and the workers
// barrier-synchronize between the k invocations. This mirrors the
// paper's baseline methodology ("the same optimized SpMV kernel").
func StandardMPKParallel(a *sparse.CSR, x0 []float64, k int, pool *parallel.Pool, onIterate IterateFunc) ([]float64, error) {
	be := csrBackend{a: a}
	return standardPowers(newTeam(pool), be.partition(pool.Workers()), nil, be, x0, k, onIterate)
}

// standardPowers is the standard engine's kernel, generalized over the
// execution backend: k SpMV sweeps, each split over the team by bounds
// (worker row bounds from be.partition, aligned to the backend's
// storage granularity so ranges write disjoint y entries), with one
// barrier per power. onIterate fires on worker 0 behind a second
// barrier, so the iterate is stable while observed.
func standardPowers(tm team, bounds []int, env *runEnv, be execBackend, x0 []float64, k int, onIterate IterateFunc) ([]float64, error) {
	if be.rows() != be.cols() {
		return nil, fmt.Errorf("core: StandardMPK: %w", sparse.ErrNotSquare)
	}
	if err := checkPowers(be.rows(), len(x0), k, nil); err != nil {
		return nil, err
	}
	ph := be.phase()
	x := sparse.CopyVec(x0)
	y := make([]float64, be.rows())
	tm.run(bodyFunc(func(id int) {
		clock := tm.clock(env, id)
		skip := false
		lo, hi := bounds[id], bounds[id+1]
		src, dst := x, y
		for power := 1; power <= k; power++ {
			clock.beginSweep(ph)
			if !skip {
				be.spmvRange(src, dst, lo, hi)
			}
			src, dst = dst, src
			// All writers must finish before anyone reads dst as the
			// next source, and before the iterate callback fires.
			tm.sync(clock, ph, -1)
			if !skip && env.canceled() {
				skip = true
			}
			if onIterate != nil {
				if id == 0 && !skip {
					onIterate(power, src)
				}
				tm.sync(clock, ph, -1)
			}
			clock.endSweep(ph, int32(power))
		}
		clock.flush()
	}))
	if env.canceled() {
		return nil, errCanceledRun
	}
	if k%2 == 1 {
		return y, nil
	}
	return x, nil
}

// standardMPKBatch computes A^k applied to nv vectors at once via SpMM
// on the execution backend: one pass over the matrix serves the whole
// block per power, so A is read k times total instead of k*nv — the
// block analogue of the MPK traffic argument, used by subspace
// iteration. xs holds the nv start vectors; the result is nv fresh
// vectors. Cancellation is checked once per power.
func standardMPKBatch(env *runEnv, be execBackend, xs [][]float64, k int) ([][]float64, error) {
	nv, err := checkMulti(be.rows(), xs, k, nil)
	if err != nil {
		return nil, err
	}
	ph := be.phase()
	x := sparse.PackVectors(xs)
	y := make([]float64, len(x))
	clock := env.serialClock()
	for power := 0; power < k; power++ {
		if env.canceled() {
			return nil, errCanceledRun
		}
		clock.beginSweep(ph)
		be.spmm(x, y, nv)
		x, y = y, x
		clock.endCompute(ph, -1)
		clock.endSweep(ph, int32(power+1))
	}
	return sparse.UnpackVectors(x, be.rows(), nv), nil
}

// scaled returns c*x in a fresh vector.
func scaled(c float64, x []float64) []float64 {
	y := make([]float64, len(x))
	for i := range y {
		y[i] = c * x[i]
	}
	return y
}

// comboHook starts the SSpMV combination at coeffs[0]*x0 and returns it
// with the iterate hook that adds coeffs[p] * A^p x0 as each power
// completes — how every engine without in-kernel accumulation
// evaluates y = sum_i coeffs[i] * A^i * x0 in a single k-power pass.
func comboHook(coeffs, x0 []float64) ([]float64, IterateFunc) {
	combo := scaled(coeffs[0], x0)
	return combo, func(power int, x []float64) {
		if c := coeffs[power]; c != 0 {
			sparse.AXPY(c, x, combo)
		}
	}
}

// SSpMVStandard evaluates y = sum_{i=0..k} coeffs[i] * A^i * x0 with
// the standard engine (k = len(coeffs)-1 SpMV sweeps).
func SSpMVStandard(a *sparse.CSR, coeffs []float64, x0 []float64) ([]float64, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("core: SSpMV needs at least one coefficient: %w", ErrBadCoeffs)
	}
	if len(x0) != a.Rows {
		return nil, fmt.Errorf("core: x0 length %d != n %d: %w", len(x0), a.Rows, ErrDimension)
	}
	y, hook := comboHook(coeffs, x0)
	if len(coeffs) == 1 {
		return y, nil
	}
	if _, err := StandardMPK(a, x0, len(coeffs)-1, hook); err != nil {
		return nil, err
	}
	return y, nil
}

// stdEngine is the standard engine of a plan: Algorithm 1 on the
// epoch's backend, row-split over the team by the backend's partition
// (structure-only, so computed once and valid for every epoch). rowPtr
// and colIdx are the structure of the execution-order matrix the
// backend was built from — the caller's own arrays unless the plan
// reordered — which a value update re-wraps for the backend to refill.
type stdEngine struct {
	team   team
	bounds []int
	rowPtr []int64
	colIdx []int32
	ph     phase // the backend's sweep phase
}

func (e *stdEngine) revalue(cur *planEpoch, src []float64, slot []int64) *planEpoch {
	n := len(e.rowPtr) - 1
	ea := &sparse.CSR{Rows: n, Cols: n, RowPtr: e.rowPtr, ColIdx: e.colIdx, Val: gatherValues(src, slot)}
	return &planEpoch{be: cur.be.withValues(ea)}
}

func (e *stdEngine) powers(_ *workspace, env *runEnv, ep *planEpoch, in []float64, k int, coeffs []float64, hook IterateFunc) (xk, combo []float64, err error) {
	if err := checkPowers(len(in), len(in), k, coeffs); err != nil {
		return nil, nil, err
	}
	if coeffs != nil {
		combo, hook = comboHook(coeffs, in)
	}
	xk, err = standardPowers(e.team, e.bounds, env, ep.be, in, k, hook)
	return xk, combo, err
}

// powersMulti advances the block with one SpMM sweep per power. The
// SpMM sweep retains no iterates, so combinations re-run every vector
// through powers: m extra k-power passes, which traffic accounts for.
func (e *stdEngine) powersMulti(ws *workspace, env *runEnv, ep *planEpoch, in [][]float64, k int, coeffs []float64) (xks, combos [][]float64, err error) {
	if xks, err = standardMPKBatch(env, ep.be, in, k); err != nil || coeffs == nil {
		return xks, nil, err
	}
	combos = make([][]float64, len(in))
	for j, x := range in {
		if _, combos[j], err = e.powers(ws, env, ep, x, k, coeffs, nil); err != nil {
			return nil, nil, err
		}
	}
	return xks, combos, nil
}

func (e *stdEngine) traffic(k, m int, combos bool) work {
	nnzA := uint64(len(e.colIdx))
	wk := work{sweeps: uint64(k), spmvs: uint64(k) * uint64(m)}
	wk.nnz[e.ph] = uint64(k) * nnzA
	if combos {
		wk.sweeps += uint64(k) * uint64(m)
		wk.nnz[e.ph] += uint64(k) * uint64(m) * nnzA
	}
	return wk
}
