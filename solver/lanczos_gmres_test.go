package solver

import (
	"errors"
	"math"
	"sort"
	"testing"

	"fbmpk"
)

func diagPlan(t *testing.T, diag []float64) *fbmpk.Plan {
	t.Helper()
	n := len(diag)
	tr, err := fbmpk.NewTriplets(n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range diag {
		tr.Add(i, i, v)
	}
	p, err := fbmpk.NewPlan(tr.ToCSR(), fbmpk.Options{Engine: fbmpk.EngineForwardBackward, BtB: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestLanczosRecoversDiagonalSpectrum(t *testing.T) {
	diag := []float64{1, 2.5, 4, 7, 11}
	p := diagPlan(t, diag)
	x0 := []float64{1, 1, 1, 1, 1}
	r, err := Lanczos(p, x0, 5)
	if err != nil {
		t.Fatal(err)
	}
	eigs := r.Eigenvalues()
	sort.Float64s(eigs)
	if len(eigs) != len(diag) {
		t.Fatalf("got %d Ritz values, want %d", len(eigs), len(diag))
	}
	for i := range diag {
		if math.Abs(eigs[i]-diag[i]) > 1e-6 {
			t.Errorf("eig[%d] = %g, want %g", i, eigs[i], diag[i])
		}
	}
	// Orthonormality of the Lanczos vectors.
	for i := range r.V {
		for j := range r.V {
			want := 0.0
			if i == j {
				want = 1
			}
			if d := math.Abs(dot(r.V[i], r.V[j]) - want); d > 1e-9 {
				t.Fatalf("<v%d,v%d> off by %g", i, j, d)
			}
		}
	}
}

func TestLanczosEarlyTermination(t *testing.T) {
	// Start vector inside a 2-dimensional invariant subspace.
	p := diagPlan(t, []float64{3, 3, 5, 5})
	r, err := Lanczos(p, []float64{1, 0, 1, 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Alpha) > 2 {
		t.Errorf("expected early termination, got %d steps", len(r.Alpha))
	}
	eigs := r.Eigenvalues()
	sort.Float64s(eigs)
	if math.Abs(eigs[0]-3) > 1e-8 || math.Abs(eigs[len(eigs)-1]-5) > 1e-8 {
		t.Errorf("Ritz values %v, want {3, 5}", eigs)
	}
}

func TestLanczosOnSuiteMatrix(t *testing.T) {
	a, p := spdPlanMatrix(t, "ldoor", 0.002)
	lo, hi, err := ExtremalEigenvalues(p, pseudoVec(a.Rows, 7), 20)
	if err != nil {
		t.Fatal(err)
	}
	glo, ghi := Gershgorin(a)
	if lo < glo-1e-6 || hi > ghi+1e-6 {
		t.Errorf("Lanczos bounds [%g, %g] outside Gershgorin [%g, %g]", lo, hi, glo, ghi)
	}
	if !(lo < hi) {
		t.Errorf("degenerate interval [%g, %g]", lo, hi)
	}
}

func TestLanczosErrors(t *testing.T) {
	p := diagPlan(t, []float64{1, 2})
	if _, err := Lanczos(p, []float64{0, 0}, 2); err == nil {
		t.Error("accepted zero start")
	}
	if _, err := Lanczos(p, []float64{1}, 2); err == nil {
		t.Error("accepted short start")
	}
	if _, err := Lanczos(p, []float64{1, 1}, 0); err == nil {
		t.Error("accepted m=0")
	}
}

func TestGMRESSolvesUnsymmetric(t *testing.T) {
	// cage14 stand-in: unsymmetric, well-conditioned (diagonally
	// dominant-ish row-stochastic).
	a, err := fbmpk.GenerateSuiteMatrix("cage14", 0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fbmpk.NewPlan(a, fbmpk.Options{Engine: fbmpk.EngineForwardBackward, BtB: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	xStar, b := consistentSystem(t, p, a.Rows, 5)
	res, err := GMRES(p, b, 30, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	recovers(t, "GMRES", res.X, xStar, 1e-6)
	// Residual history decreases overall.
	if res.Residuals[len(res.Residuals)-1] >= res.Residuals[0] {
		t.Error("residual did not decrease")
	}
}

func TestGMRESRestartStillConverges(t *testing.T) {
	a, p := spdPlanMatrix(t, "G3_circuit", 0.002)
	xStar, b := consistentSystem(t, p, a.Rows, 9)
	// Tiny restart forces several outer cycles.
	res, err := GMRES(p, b, 5, 1e-8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	recovers(t, "restarted GMRES", res.X, xStar, 1e-4)
}

func TestGMRESEdgeCases(t *testing.T) {
	p := diagPlan(t, []float64{2, 4})
	if _, err := GMRES(p, []float64{1}, 5, 1e-8, 10); err == nil {
		t.Error("accepted short b")
	}
	if _, err := GMRES(p, []float64{1, 1}, 0, 1e-8, 10); err == nil {
		t.Error("accepted restart=0")
	}
	if _, err := GMRES(p, []float64{1, 1}, 5, 1e-8, 0); err == nil {
		t.Error("accepted maxIter=0")
	}
	res, err := GMRES(p, []float64{0, 0}, 5, 1e-8, 10)
	if err != nil || res.Residuals[0] != 0 {
		t.Error("zero RHS not handled")
	}
	// Exact solve of a diagonal system in <= n steps.
	res, err = GMRES(p, []float64{2, 8}, 5, 1e-12, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-9 || math.Abs(res.X[1]-2) > 1e-9 {
		t.Errorf("diagonal solve = %v, want [1 2]", res.X)
	}
	// Budget exhaustion.
	a, pp := spdPlanMatrix(t, "cant", 0.001)
	_ = a
	bb := pseudoVec(pp.N(), 11)
	if _, err := GMRES(pp, bb, 3, 1e-16, 3); !errors.Is(err, ErrNotConverged) {
		t.Errorf("want ErrNotConverged, got %v", err)
	}
}
