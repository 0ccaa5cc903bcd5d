// Package core implements the paper's contribution: the
// forward-backward matrix-power kernel (FBMPK) with the back-to-back
// vector layout and ABMC-based parallelization, plus the standard MPK
// baseline it is evaluated against, and the generic SSpMV form
// y = sum_i alpha_i A^i x both engines support.
package core

import (
	"fmt"

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

// standardPowers is the standard engine's one driver, for every block
// width and worker count: k sweeps of sparse.SpMMRange over the nv
// row-major vectors of x (nv = 1: plain SpMV), each split over the team
// by bounds (worker row bounds, so ranges write disjoint y entries),
// with one barrier per power. x is overwritten; the result is x or a
// fresh block of its size. onIterate fires on worker 0 behind a second
// barrier, so the iterate is stable while observed.
func standardPowers(tm team, bounds []int, env *runEnv, a *sparse.CSR, x []float64, nv, k int, onIterate IterateFunc) ([]float64, error) {
	const ph = phaseStandard
	y := make([]float64, len(x))
	tm.run(bodyFunc(func(id int) {
		clock := tm.clock(env, id)
		skip := false
		lo, hi := bounds[id], bounds[id+1]
		src, dst := x, y
		for power := 1; power <= k; power++ {
			clock.beginSweep()
			if !skip {
				sparse.SpMMRange(a, src, dst, nv, lo, hi)
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

// eachVector is powersMulti as one powers call per vector: the
// level-blocked engine's batched path, and the standard engine's for
// combinations, which need each vector's iterates and its block sweep
// does not show them. A^k x may alias workspace scratch the next vector
// reuses, so it is copied out; a combination is already fresh.
func eachVector(e engine, ws *workspace, env *runEnv, ep *planEpoch, in [][]float64, k int, coeffs []float64) ([][]float64, error) {
	out := make([][]float64, len(in))
	for j, x := range in {
		y, err := e.powers(ws, env, ep, x, k, coeffs, nil)
		if err != nil {
			return nil, err
		}
		if coeffs == nil {
			y = sparse.CopyVec(y)
		}
		out[j] = y
	}
	return out, nil
}

// stdEngine is the standard engine of a plan: Algorithm 1 on the
// epoch's execution-order CSR, row-split over the team by nonzeros
// (structure-only, so computed once and valid for every epoch).
type stdEngine struct {
	team   team
	bounds []int
	nnzA   uint64
}

func (e *stdEngine) revalue(cur *planEpoch, src []float64, slot []int64) *planEpoch {
	a := *cur.a
	a.Val = gatherValues(src, slot)
	return &planEpoch{a: &a}
}

func (e *stdEngine) powers(_ *workspace, env *runEnv, ep *planEpoch, in []float64, k int, coeffs []float64, hook IterateFunc) ([]float64, error) {
	if err := checkPowers(len(in), len(in), k, coeffs); err != nil {
		return nil, err
	}
	var combo []float64
	if coeffs != nil {
		combo, hook = comboHook(coeffs, in)
	}
	xk, err := standardPowers(e.team, e.bounds, env, ep.a, sparse.CopyVec(in), 1, k, hook)
	if err != nil || hook == nil {
		return xk, err
	}
	return combo, nil // nil when the caller's own hook saw the iterates
}

// powersMulti advances the block with one SpMM sweep per power on the
// team. A combination needs every iterate of its vector, which the
// block sweep does not show, so combinations run vector by vector.
func (e *stdEngine) powersMulti(ws *workspace, env *runEnv, ep *planEpoch, in [][]float64, k int, coeffs []float64) ([][]float64, error) {
	if coeffs != nil {
		return eachVector(e, ws, env, ep, in, k, coeffs)
	}
	xk, err := standardPowers(e.team, e.bounds, env, ep.a, sparse.PackVectors(in), len(in), k, nil)
	if err != nil {
		return nil, err
	}
	return sparse.UnpackVectors(xk, len(in[0]), len(in)), nil
}

// traffic: k sweeps over A serve the whole block (1/m reads of A per
// SpMV); combinations take k sweeps per vector (1 read per SpMV).
func (e *stdEngine) traffic(k, m int, combos bool) work {
	sweeps := uint64(k)
	if combos {
		sweeps *= uint64(m)
	}
	wk := work{sweeps: sweeps, spmvs: uint64(k) * uint64(m)}
	wk.nnz[phaseStandard] = sweeps * e.nnzA
	return wk
}
