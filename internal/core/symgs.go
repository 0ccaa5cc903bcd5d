package core

import (
	"fmt"

	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// Symmetric Gauss-Seidel (SYMGS). The paper notes (Sections III-A and
// VII) that FBMPK's forward/backward sweep structure matches the SYMGS
// smoother of HPCG and that the same split and multi-color
// parallelization apply. This file provides that kernel on the shared
// Triangular split: one SYMGS application is
//
//	forward:  (L + D) x' = b - U x      (rows top-down)
//	backward: (D + U) x" = b - L x'     (rows bottom-up)
//
// making the library usable as the smoother substrate of a multigrid
// or HPCG-style solver — the third application class (multigrid
// methods [22]) the paper's introduction motivates.

// SymGSSerial applies sweeps symmetric Gauss-Seidel iterations to
// A x = b in place on x. Rows with a zero diagonal are skipped (their
// x entry is left unchanged), matching common practice for
// saddle-point test matrices.
func SymGSSerial(tri *sparse.Triangular, b, x []float64, sweeps int) error {
	return symGS(serialSchedule(tri), nil, tri, b, x, sweeps)
}

// symGS runs sweeps SYMGS iterations over the color schedule sch —
// colors ascending in the forward half-sweep, descending in the
// backward one, barrier between colors: the exact scheme the FB
// pipeline uses — executing on tri, any split sharing the structure
// sch was built for (the plan passes its pinned epoch's split).
func symGS(sch *colorSchedule, env *runEnv, tri *sparse.Triangular, b, x []float64, sweeps int) error {
	n := tri.N
	if len(b) != n || len(x) != n {
		return fmt.Errorf("core: SymGS (n=%d, b=%d, x=%d): %w", n, len(b), len(x), ErrDimension)
	}
	if sweeps < 1 {
		return fmt.Errorf("core: SymGS sweeps=%d: %w", sweeps, ErrBadSweeps)
	}
	tm := sch.team
	nc := len(sch.rows)
	tm.run(bodyFunc(func(id int) {
		clock := tm.clock(env, id)
		skip := false
		for h := 1; h <= 2*sweeps; h++ { // half-sweeps: odd forward, even backward
			clock.beginSweep(phaseSymGS)
			for ci := 0; ci < nc; ci++ {
				c := ci
				if h&1 == 0 {
					c = nc - 1 - ci
				}
				if !skip {
					lo, hi := sch.rows[c][id], sch.rows[c][id+1]
					if h&1 == 1 {
						symGSForwardRange(tri, b, x, lo, hi)
					} else {
						symGSBackwardRange(tri, b, x, lo, hi)
					}
				}
				tm.sync(clock, phaseSymGS, int32(c))
				if !skip && env.canceled() {
					skip = true
				}
			}
			clock.endSweep(phaseSymGS, int32(h))
		}
		clock.flush()
	}))
	if env.canceled() {
		return errCanceledRun
	}
	return nil
}

// symGSForwardRange updates x[lo:hi) with the forward sweep
// x[i] = (b[i] - L x - U x) / d[i], using the freshest x values
// (Gauss-Seidel, not Jacobi): L entries see already-updated rows.
func symGSForwardRange(tri *sparse.Triangular, b, x []float64, lo, hi int) {
	lrp, lci, lv := tri.L.RowPtr, tri.L.ColIdx, tri.L.Val
	urp, uci, uv := tri.U.RowPtr, tri.U.ColIdx, tri.U.Val
	d := tri.D
	for i := lo; i < hi; i++ {
		if d[i] == 0 {
			continue
		}
		s := b[i]
		for j := lrp[i]; j < lrp[i+1]; j++ {
			s -= lv[j] * x[lci[j]]
		}
		for j := urp[i]; j < urp[i+1]; j++ {
			s -= uv[j] * x[uci[j]]
		}
		x[i] = s / d[i]
	}
}

// symGSBackwardRange is the mirrored bottom-up sweep.
func symGSBackwardRange(tri *sparse.Triangular, b, x []float64, lo, hi int) {
	lrp, lci, lv := tri.L.RowPtr, tri.L.ColIdx, tri.L.Val
	urp, uci, uv := tri.U.RowPtr, tri.U.ColIdx, tri.U.Val
	d := tri.D
	for i := hi - 1; i >= lo; i-- {
		if d[i] == 0 {
			continue
		}
		s := b[i]
		for j := lrp[i]; j < lrp[i+1]; j++ {
			s -= lv[j] * x[lci[j]]
		}
		for j := urp[i]; j < urp[i+1]; j++ {
			s -= uv[j] * x[uci[j]]
		}
		x[i] = s / d[i]
	}
}

// SymGSParallel applies SYMGS with ABMC multi-color parallelization:
// the standalone form of the plan's parallel smoother. tri and ord must
// describe the same permuted matrix; b and x are in the permuted
// ordering.
type SymGSParallel struct {
	tri *sparse.Triangular
	sch *colorSchedule
}

// NewSymGSParallel prepares a parallel SYMGS executor over an
// ABMC-ordered split matrix.
func NewSymGSParallel(tri *sparse.Triangular, ord *reorder.ABMCResult, pool *parallel.Pool) (*SymGSParallel, error) {
	sch, err := newColorSchedule(tri, ord, pool)
	if err != nil {
		return nil, err
	}
	return &SymGSParallel{tri: tri, sch: sch}, nil
}

// Apply runs sweeps SYMGS iterations on x in place.
func (g *SymGSParallel) Apply(b, x []float64, sweeps int) error {
	return symGS(g.sch, nil, g.tri, b, x, sweeps)
}
