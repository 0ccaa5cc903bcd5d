package fbmpk_test

// End-to-end integration tests combining the public API surfaces the
// way a downstream application would: file I/O -> plan -> solver, and
// the engines cross-checked against each other on every suite matrix.

import (
	"math"
	"path/filepath"
	"testing"

	"fbmpk"
	"fbmpk/solver"
)

// TestEndToEndFileToSolve writes a matrix to .mtx, reads it back,
// builds a parallel FBMPK plan, and solves a linear system with
// SYMGS-preconditioned CG.
func TestEndToEndFileToSolve(t *testing.T) {
	orig, err := fbmpk.GenerateSuiteMatrix("pwtk", 0.003, 77)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := fbmpk.SaveMatrixMarket(path, orig); err != nil {
		t.Fatal(err)
	}
	a, _, err := fbmpk.LoadMatrixMarket(path)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(orig) {
		t.Fatal("matrix changed through the file")
	}

	plan, err := fbmpk.NewPlan(a, fbmpk.DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()

	n := a.Rows
	xStar := make([]float64, n)
	for i := range xStar {
		xStar[i] = math.Sin(float64(i))
	}
	b, err := plan.MPK(xStar, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.PCG(plan, b, &solver.SymGSPreconditioner{Plan: plan}, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xStar[i]) > 1e-6 {
			t.Fatalf("solution wrong at %d: %g vs %g", i, res.X[i], xStar[i])
		}
	}
}

// TestKrylovThenChebyshev chains two solver components: spectrum
// bounds from Gershgorin feed a Chebyshev solve whose residual is then
// verified through the plan.
func TestKrylovThenChebyshev(t *testing.T) {
	a, err := fbmpk.GenerateSuiteMatrix("G3_circuit", 0.003, 13)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fbmpk.NewPlan(a, fbmpk.Options{Engine: fbmpk.EngineForwardBackward, BtB: true})
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()

	// Non-uniform start: the generated matrices have unit row sums, so
	// the all-ones vector spans a one-dimensional Krylov space.
	start := make([]float64, a.Rows)
	for i := range start {
		start[i] = math.Sin(float64(3*i + 1))
	}
	basis, err := solver.KrylovBasis(plan, start, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(basis) < 3 {
		t.Fatalf("Krylov basis collapsed to %d vectors", len(basis))
	}
	lo, hi := solver.Gershgorin(a)
	if lo <= 0 {
		lo = hi * 1e-4
	}
	b := basis[0]
	x, err := solver.ChebyshevSolve(plan, b, lo, hi, 8)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := plan.MPK(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	var r, bn float64
	for i := range ax {
		d := b[i] - ax[i]
		r += d * d
		bn += b[i] * b[i]
	}
	if math.Sqrt(r/bn) > 0.5 {
		t.Errorf("degree-8 Chebyshev relative residual %g", math.Sqrt(r/bn))
	}
}
