// Package solver builds the classical iterative algorithms the paper's
// introduction motivates as SSpMV consumers — eigenvalue solvers
// (refs [16]-[19]), linear-equation solvers (refs [20], [21]) and
// smoothers — on top of the fbmpk Plan API. Every matrix application
// goes through the plan, so the forward-backward pipeline accelerates
// each algorithm's inner loop transparently.
package solver

import (
	"errors"
	"fmt"
	"math"

	"fbmpk"
)

// ErrNotConverged is returned (wrapped) when an iteration hits its
// budget before reaching the requested tolerance.
var ErrNotConverged = errors.New("solver: not converged")

// ErrBreakdown is returned when an iteration encounters a zero
// direction or pivot (e.g. a CG direction of non-positive curvature).
var ErrBreakdown = errors.New("solver: breakdown")

// Gershgorin returns an interval [lo, hi] containing all eigenvalues
// of a symmetric matrix, from Gershgorin's disk theorem. For
// unsymmetric matrices it bounds the real parts.
func Gershgorin(a *fbmpk.Matrix) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	if a.Rows == 0 {
		return 0, 0
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		var diag, radius float64
		for k, c := range cols {
			if int(c) == i {
				diag = vals[k]
			} else {
				radius += math.Abs(vals[k])
			}
		}
		lo = math.Min(lo, diag-radius)
		hi = math.Max(hi, diag+radius)
	}
	return lo, hi
}

func dot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func norm2(x []float64) float64 { return math.Sqrt(dot(x, x)) }

func axpy(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// apply computes A*x through the plan (one MPK step).
func apply(p *fbmpk.Plan, x []float64) ([]float64, error) {
	return p.MPK(x, 1)
}

// CGResult reports a conjugate-gradient solve.
type CGResult struct {
	X          []float64
	Iterations int
	Residuals  []float64 // ||r||_2 after each iteration, index 0 = initial
}

// CG solves A x = b for symmetric positive-definite A with the
// conjugate gradient method, stopping when ||r|| <= tol*||b|| or after
// maxIter iterations (then it returns the best iterate wrapped with
// ErrNotConverged). It is PCG without a preconditioner.
func CG(p *fbmpk.Plan, b []float64, tol float64, maxIter int) (*CGResult, error) {
	return pcg("CG", p, b, nil, tol, maxIter)
}

// ChebyshevCoeffs returns the monomial coefficients c_0..c_k (c_k = 0)
// of the polynomial p with 1 - t*p(t) = T_k(mu(t))/T_k(mu(0)) on the
// spectrum interval [lo, hi]: the optimal degree-(k-1) polynomial
// approximation to 1/t for a single fused SSpMV evaluation
// x ~= p(A) b. Requires 0 < lo < hi.
func ChebyshevCoeffs(k int, lo, hi float64) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("solver: Chebyshev degree %d must be >= 1", k)
	}
	if !(0 < lo && lo < hi) {
		return nil, fmt.Errorf("solver: Chebyshev needs 0 < lo < hi, got [%g, %g]", lo, hi)
	}
	alpha := (hi + lo) / (hi - lo)
	beta := -2 / (hi - lo)
	tPrev := []float64{1}
	tCur := []float64{alpha, beta}
	for m := 1; m < k; m++ {
		next := make([]float64, len(tCur)+1)
		for i, c := range tCur {
			next[i] += 2 * alpha * c
			next[i+1] += 2 * beta * c
		}
		for i, c := range tPrev {
			next[i] -= c
		}
		tPrev, tCur = tCur, next
	}
	tk0 := tCur[0]
	coeffs := make([]float64, k+1)
	for i := 1; i <= k; i++ {
		coeffs[i-1] = -tCur[i] / tk0
	}
	return coeffs, nil
}

// ChebyshevSolve computes the one-shot polynomial approximation
// x = p(A) b of degree k-1 on the spectrum interval [lo, hi],
// evaluated as a single fused SSpMV pipeline. The residual norm decays
// like the Chebyshev bound 2 rho^k with
// rho = (sqrt(kappa)-1)/(sqrt(kappa)+1), kappa = hi/lo.
func ChebyshevSolve(p *fbmpk.Plan, b []float64, lo, hi float64, k int) ([]float64, error) {
	coeffs, err := ChebyshevCoeffs(k, lo, hi)
	if err != nil {
		return nil, err
	}
	return p.SSpMV(coeffs, b)
}

// NeumannSeries evaluates the truncated series
// x = sum_{i=0..k} damp^i A^i v (scaled by (1-damp) when scale is
// true), the PageRank/regularized-resolvent expansion, as one fused
// SSpMV pipeline.
func NeumannSeries(p *fbmpk.Plan, v []float64, damp float64, k int, scale bool) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("solver: Neumann order %d must be >= 1", k)
	}
	coeffs := make([]float64, k+1)
	w := 1.0
	if scale {
		w = 1 - damp
	}
	for i := range coeffs {
		coeffs[i] = w
		w *= damp
	}
	return p.SSpMV(coeffs, v)
}

// PowerResult reports a power-method run.
type PowerResult struct {
	Lambda     float64
	Vector     []float64
	Iterations int // matrix applications performed
	Residual   float64
}

// PowerMethod estimates the dominant eigenpair by blocked power
// iteration: each outer step applies A^block through the MPK pipeline
// and renormalizes. It stops when the eigen-residual
// ||A v - lambda v|| falls below tol*|lambda| or after maxBlocks
// blocks (returning the best estimate wrapped with ErrNotConverged).
func PowerMethod(p *fbmpk.Plan, x0 []float64, block, maxBlocks int, tol float64) (*PowerResult, error) {
	if block < 1 || maxBlocks < 1 {
		return nil, fmt.Errorf("solver: PowerMethod needs block >= 1 and maxBlocks >= 1")
	}
	if len(x0) != p.N() {
		return nil, fmt.Errorf("solver: PowerMethod: x0 length %d != n %d", len(x0), p.N())
	}
	x := append([]float64(nil), x0...)
	if nrm := norm2(x); nrm != 0 {
		for i := range x {
			x[i] /= nrm
		}
	} else {
		return nil, fmt.Errorf("solver: PowerMethod: zero start vector")
	}
	res := &PowerResult{Vector: x}
	for bIdx := 0; bIdx < maxBlocks; bIdx++ {
		y, err := p.MPK(x, block)
		if err != nil {
			return nil, err
		}
		nrm := norm2(y)
		if nrm == 0 {
			return res, fmt.Errorf("solver: PowerMethod: %w (iterate vanished)", ErrBreakdown)
		}
		for i := range y {
			y[i] /= nrm
		}
		x = y
		ax, err := apply(p, x)
		if err != nil {
			return nil, err
		}
		lambda := dot(x, ax)
		r := 0.0
		for i := range ax {
			d := ax[i] - lambda*x[i]
			r += d * d
		}
		res.Lambda = lambda
		res.Vector = x
		res.Residual = math.Sqrt(r)
		res.Iterations += block + 1
		if res.Residual <= tol*math.Abs(lambda) {
			return res, nil
		}
	}
	return res, fmt.Errorf("solver: PowerMethod residual %g after %d applications: %w",
		res.Residual, res.Iterations, ErrNotConverged)
}

// KrylovBasis computes an orthonormal basis of the Krylov space
// span{x0, A x0, ..., A^s x0} the s-step way: one fused MPK sweep
// produces all monomial-basis vectors (about half the matrix traffic
// of s separate SpMVs), then modified Gram-Schmidt orthonormalizes
// them. It returns the basis vectors (possibly fewer than s+1 when the
// space is deficient). This is the communication-avoiding kernel of
// s-step Krylov methods (Section VI, refs [46]-[48]); for large s the
// monomial basis is ill-conditioned — keep s modest (<= ~8).
func KrylovBasis(p *fbmpk.Plan, x0 []float64, s int) ([][]float64, error) {
	if s < 1 {
		return nil, fmt.Errorf("solver: KrylovBasis s=%d must be >= 1", s)
	}
	raw, err := p.MPKAll(x0, s)
	if err != nil {
		return nil, err
	}
	var basis [][]float64
	const dropTol = 1e-10
	for _, v := range raw {
		w := append([]float64(nil), v...)
		orig := norm2(w)
		if orig == 0 {
			continue
		}
		for _, q := range basis {
			axpy(-dot(q, w), q, w)
		}
		// Re-orthogonalize once (classical fix for MGS drift).
		for _, q := range basis {
			axpy(-dot(q, w), q, w)
		}
		nrm := norm2(w)
		if nrm <= dropTol*orig {
			continue // linearly dependent direction
		}
		for i := range w {
			w[i] /= nrm
		}
		basis = append(basis, w)
	}
	if len(basis) == 0 {
		return nil, fmt.Errorf("solver: KrylovBasis: %w (zero start vector)", ErrBreakdown)
	}
	return basis, nil
}
