package solver

import (
	"errors"
	"math"
	"testing"

	"fbmpk"
)

func consistentSystem(t *testing.T, p *fbmpk.Plan, n int, seed uint64) (xStar, b []float64) {
	t.Helper()
	xStar = pseudoVec(n, seed)
	b, err := p.MPK(xStar, 1)
	if err != nil {
		t.Fatal(err)
	}
	return xStar, b
}

func TestPCGPlainMatchesCG(t *testing.T) {
	a, p := spdPlanMatrix(t, "G3_circuit", 0.002)
	_, b := consistentSystem(t, p, a.Rows, 23)
	cg, err := CG(p, b, 1e-9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	pcg, err := PCG(p, b, nil, 1e-9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Identical recurrence, identical arithmetic: z = r makes <r, z> the
	// <r, r> CG divides by, so every iterate and residual agrees bit for bit.
	if cg.Iterations != pcg.Iterations {
		t.Fatalf("plain PCG took %d iterations, CG %d", pcg.Iterations, cg.Iterations)
	}
	for name, pair := range map[string][2][]float64{"X": {cg.X, pcg.X}, "Residuals": {cg.Residuals, pcg.Residuals}} {
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("%s[%d]: CG %v, plain PCG %v", name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

func TestPCGJacobiConverges(t *testing.T) {
	a, p := spdPlanMatrix(t, "pwtk", 0.002)
	xStar, b := consistentSystem(t, p, a.Rows, 29)
	m := NewJacobiPreconditioner(a)
	res, err := PCG(p, b, m, 1e-10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	maxErr := 0.0
	for i := range res.X {
		maxErr = math.Max(maxErr, math.Abs(res.X[i]-xStar[i]))
	}
	if maxErr > 1e-6 {
		t.Errorf("PCG-Jacobi error %g", maxErr)
	}
}

func TestPCGSymGSAcceleratesCG(t *testing.T) {
	a, p := spdPlanMatrix(t, "G3_circuit", 0.003)
	_, b := consistentSystem(t, p, a.Rows, 31)
	plain, err := CG(p, b, 1e-9, 2000)
	if err != nil {
		t.Fatal(err)
	}
	pre := &SymGSPreconditioner{Plan: p}
	res, err := PCG(p, b, pre, 1e-9, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= plain.Iterations {
		t.Errorf("SYMGS-PCG took %d iterations, plain CG %d — no acceleration",
			res.Iterations, plain.Iterations)
	}
}

func TestPCGSymGSParallelPlan(t *testing.T) {
	// Parallel plan: SymGS goes through the ABMC-colored parallel
	// smoother and permutation round trips.
	a, err := fbmpk.GenerateSuiteMatrix("pwtk", 0.002, 9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fbmpk.NewPlan(a, fbmpk.DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	xStar := pseudoVec(a.Rows, 37)
	b, err := p.MPK(xStar, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PCG(p, b, &SymGSPreconditioner{Plan: p, Sweeps: 1}, 1e-9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	maxErr := 0.0
	for i := range res.X {
		maxErr = math.Max(maxErr, math.Abs(res.X[i]-xStar[i]))
	}
	if maxErr > 1e-5 {
		t.Errorf("parallel-plan PCG error %g", maxErr)
	}
}

func TestPCGEdgeCases(t *testing.T) {
	a, p := spdPlanMatrix(t, "cant", 0.001)
	if _, err := PCG(p, make([]float64, a.Rows-1), nil, 1e-6, 10); err == nil {
		t.Error("accepted short b")
	}
	if _, err := PCG(p, make([]float64, a.Rows), nil, 1e-6, 0); err == nil {
		t.Error("accepted maxIter=0")
	}
	res, err := PCG(p, make([]float64, a.Rows), nil, 1e-6, 10)
	if err != nil || res.Residuals[0] != 0 {
		t.Error("zero RHS not handled")
	}
	b := pseudoVec(a.Rows, 41)
	_, err = PCG(p, b, nil, 1e-18, 1)
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("want ErrNotConverged, got %v", err)
	}
}

func TestJacobiPreconditionerZeroDiag(t *testing.T) {
	tr, err := fbmpk.NewTriplets(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.Add(0, 0, 4)
	// Row 1 has no diagonal entry.
	a := tr.ToCSR()
	m := NewJacobiPreconditioner(a)
	z := make([]float64, 2)
	if err := m.Precondition([]float64{8, 3}, z); err != nil {
		t.Fatal(err)
	}
	if z[0] != 2 || z[1] != 3 {
		t.Errorf("z = %v, want [2 3]", z)
	}
	if err := m.Precondition([]float64{1}, z); err == nil {
		t.Error("accepted short r")
	}
}

func TestConditionEstimate(t *testing.T) {
	a, p := spdPlanMatrix(t, "shipsec1", 0.001)
	lo, hi, err := ConditionEstimate(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if !(0 < lo && lo < hi) {
		t.Errorf("estimate [%g, %g] not a positive interval", lo, hi)
	}
}

func TestPlanSymGSErrors(t *testing.T) {
	// Standard-engine plan has no split: SymGS must refuse.
	a, err := fbmpk.GenerateSuiteMatrix("cant", 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fbmpk.NewPlan(a, fbmpk.Options{Engine: fbmpk.EngineStandard})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := make([]float64, a.Rows)
	if err := p.SymGS(x, x, 1); err == nil {
		t.Error("standard-engine plan accepted SymGS")
	}
}
