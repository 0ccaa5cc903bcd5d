package solver

import (
	"fmt"
	"math"

	"fbmpk"
)

// Preconditioner applies an approximate inverse: z = M^{-1} r.
// Implementations must not retain r or z.
type Preconditioner interface {
	Precondition(r, z []float64) error
}

// SymGSPreconditioner wraps the plan's symmetric Gauss-Seidel smoother
// (Plan.SymGS) as a CG preconditioner: z solves M z = r approximately
// with the given number of sweeps starting from z = 0. One SYMGS sweep
// is the symmetric smoother HPCG uses, and is a symmetric positive
// operator for SPD matrices, as PCG requires.
type SymGSPreconditioner struct {
	Plan   *fbmpk.Plan
	Sweeps int // 0 selects 1
}

// Precondition implements Preconditioner.
func (m *SymGSPreconditioner) Precondition(r, z []float64) error {
	for i := range z {
		z[i] = 0
	}
	sweeps := m.Sweeps
	if sweeps < 1 {
		sweeps = 1
	}
	return m.Plan.SymGS(r, z, sweeps)
}

// JacobiPreconditioner scales by the inverse diagonal. Zero diagonal
// entries pass the residual through unscaled.
type JacobiPreconditioner struct {
	InvDiag []float64
}

// NewJacobiPreconditioner extracts the diagonal of a.
func NewJacobiPreconditioner(a *fbmpk.Matrix) *JacobiPreconditioner {
	d := a.Diagonal()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v != 0 {
			inv[i] = 1 / v
		} else {
			inv[i] = 1
		}
	}
	return &JacobiPreconditioner{InvDiag: inv}
}

// Precondition implements Preconditioner.
func (m *JacobiPreconditioner) Precondition(r, z []float64) error {
	if len(r) != len(m.InvDiag) || len(z) != len(m.InvDiag) {
		return fmt.Errorf("solver: Jacobi preconditioner dimension mismatch")
	}
	for i := range z {
		z[i] = m.InvDiag[i] * r[i]
	}
	return nil
}

// PCG solves A x = b with preconditioned conjugate gradients. M nil
// degrades to plain CG. Stopping and error semantics match CG.
func PCG(p *fbmpk.Plan, b []float64, m Preconditioner, tol float64, maxIter int) (*CGResult, error) {
	return pcg("PCG", p, b, m, tol, maxIter)
}

// pcg is the one conjugate-gradient loop behind CG and PCG; name
// prefixes its errors. Without a preconditioner z aliases r, so <r, z>
// is the <r, r> of plain CG.
func pcg(name string, p *fbmpk.Plan, b []float64, m Preconditioner, tol float64, maxIter int) (*CGResult, error) {
	n := len(b)
	if n != p.N() {
		return nil, fmt.Errorf("solver: %s: b length %d != n %d", name, n, p.N())
	}
	if maxIter < 1 {
		return nil, fmt.Errorf("solver: %s: maxIter=%d must be >= 1", name, maxIter)
	}
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	z := r
	applyM := func() error { return nil }
	if m != nil {
		z = make([]float64, n)
		applyM = func() error { return m.Precondition(r, z) }
	}
	if err := applyM(); err != nil {
		return nil, err
	}
	pdir := append([]float64(nil), z...)
	rz := dot(r, z)
	bnorm := norm2(b)
	if bnorm == 0 {
		return &CGResult{X: x, Residuals: []float64{0}}, nil
	}
	res := &CGResult{X: x, Residuals: []float64{norm2(r)}}
	for it := 0; it < maxIter; it++ {
		ap, err := apply(p, pdir)
		if err != nil {
			return nil, err
		}
		pap := dot(pdir, ap)
		if pap <= 0 {
			return res, fmt.Errorf("solver: %s: %w (non-positive curvature %g; matrix not SPD?)", name, ErrBreakdown, pap)
		}
		alpha := rz / pap
		axpy(alpha, pdir, x)
		axpy(-alpha, ap, r)
		rn := norm2(r)
		res.Iterations = it + 1
		res.Residuals = append(res.Residuals, rn)
		if rn <= tol*bnorm {
			return res, nil
		}
		if err := applyM(); err != nil {
			return nil, err
		}
		rzNew := dot(r, z)
		if rzNew <= 0 && m != nil {
			return res, fmt.Errorf("solver: %s: %w (preconditioner not positive definite, <r,z>=%g)",
				name, ErrBreakdown, rzNew)
		}
		beta := rzNew / rz
		for i := range pdir {
			pdir[i] = z[i] + beta*pdir[i]
		}
		rz = rzNew
	}
	return res, fmt.Errorf("solver: %s after %d iterations, residual %g: %w",
		name, maxIter, res.Residuals[len(res.Residuals)-1]/bnorm, ErrNotConverged)
}

// ConditionEstimate roughly estimates kappa(A) = lambda_max/lambda_min
// for an SPD matrix from Gershgorin bounds (upper bound on lambda_max)
// and a short power iteration on the dominant pair; it is the helper
// Chebyshev callers use to pick an interval when bounds are unknown.
func ConditionEstimate(p *fbmpk.Plan, a *fbmpk.Matrix) (lo, hi float64, err error) {
	glo, ghi := Gershgorin(a)
	x0 := make([]float64, a.Rows)
	for i := range x0 {
		x0[i] = math.Sin(float64(2*i + 1))
	}
	pr, err := PowerMethod(p, x0, 4, 20, 1e-3)
	if err != nil && pr == nil {
		return 0, 0, err
	}
	hi = pr.Lambda
	if ghi > 0 && hi > ghi {
		hi = ghi
	}
	lo = glo
	if lo <= 0 {
		lo = hi * 1e-6
	}
	return lo, hi, nil
}
