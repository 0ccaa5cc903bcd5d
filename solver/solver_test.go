package solver

import (
	"errors"
	"math"
	"testing"

	"fbmpk"
)

// spdPlanMatrix builds a small SPD suite matrix and a serial FBMPK
// plan for it.
func spdPlanMatrix(t *testing.T, name string, scale float64) (*fbmpk.Matrix, *fbmpk.Plan) {
	t.Helper()
	a, err := fbmpk.GenerateSuiteMatrix(name, scale, 9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fbmpk.NewPlan(a, fbmpk.Options{Engine: fbmpk.EngineForwardBackward, BtB: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return a, p
}

func pseudoVec(n int, seed uint64) []float64 {
	x := make([]float64, n)
	s := seed | 1
	for i := range x {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		x[i] = float64(int64(s%2000)-1000) / 1000
	}
	return x
}

func TestGershgorinBoundsSpectrum(t *testing.T) {
	a, p := spdPlanMatrix(t, "pwtk", 0.002)
	lo, hi := Gershgorin(a)
	if lo <= 0 {
		// Generator matrices are strictly diagonally dominant with
		// margin 1, so lo must be >= 1.
		t.Errorf("lo = %g, want > 0", lo)
	}
	if hi <= lo {
		t.Fatalf("bounds [%g, %g] empty", lo, hi)
	}
	// Dominant eigenvalue must lie within the disks.
	pr, err := PowerMethod(p, pseudoVec(a.Rows, 3), 4, 100, 1e-6)
	if err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	if pr.Lambda < lo-1e-9 || pr.Lambda > hi+1e-9 {
		t.Errorf("lambda %g outside Gershgorin [%g, %g]", pr.Lambda, lo, hi)
	}
	if lo0, hi0 := Gershgorin(&fbmpk.Matrix{Rows: 0, Cols: 0, RowPtr: []int64{0}}); lo0 != 0 || hi0 != 0 {
		t.Error("empty matrix bounds not (0,0)")
	}
}

func TestCGConverges(t *testing.T) {
	a, p := spdPlanMatrix(t, "G3_circuit", 0.002)
	n := a.Rows
	xStar, b := consistentSystem(t, p, n, 5)
	res, err := CG(p, b, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	recovers(t, "CG", res.X, xStar, 1e-6)
	// Residual history must be monotone-ish down to the tolerance.
	first, last := res.Residuals[0], res.Residuals[len(res.Residuals)-1]
	if last >= first {
		t.Errorf("residual did not decrease: %g -> %g", first, last)
	}
	if res.Iterations < 1 {
		t.Error("no iterations recorded")
	}
}

func TestCGEdgeCases(t *testing.T) {
	a, p := spdPlanMatrix(t, "cant", 0.001)
	if _, err := CG(p, make([]float64, a.Rows-1), 1e-6, 10); err == nil {
		t.Error("accepted short b")
	}
	if _, err := CG(p, make([]float64, a.Rows), 1e-6, 0); err == nil {
		t.Error("accepted maxIter=0")
	}
	// Zero RHS: exact zero solution immediately.
	res, err := CG(p, make([]float64, a.Rows), 1e-6, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.X {
		if v != 0 {
			t.Fatal("zero RHS must give zero solution")
		}
	}
	// Budget exhaustion reports ErrNotConverged but returns iterate.
	b := pseudoVec(a.Rows, 7)
	res, err = CG(p, b, 1e-16, 1)
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("want ErrNotConverged, got %v", err)
	}
	if res == nil || res.Iterations != 1 {
		t.Error("budget-exhausted result missing")
	}
}

func TestChebyshevSolveConvergesWithDegree(t *testing.T) {
	a, p := spdPlanMatrix(t, "G3_circuit", 0.002)
	lo, hi := Gershgorin(a)
	if lo <= 0 {
		lo = hi * 1e-4
	}
	_, b := consistentSystem(t, p, a.Rows, 11)
	prev := math.Inf(1)
	for _, k := range []int{2, 4, 8} {
		x, err := ChebyshevSolve(p, b, lo, hi, k)
		if err != nil {
			t.Fatal(err)
		}
		ax, err := p.MPK(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := 0.0
		for i := range ax {
			d := b[i] - ax[i]
			r += d * d
		}
		r = math.Sqrt(r)
		if r >= prev {
			t.Errorf("degree %d: residual %g did not improve on %g", k, r, prev)
		}
		prev = r
	}
}

func TestChebyshevCoeffsValidation(t *testing.T) {
	if _, err := ChebyshevCoeffs(0, 1, 2); err == nil {
		t.Error("accepted degree 0")
	}
	if _, err := ChebyshevCoeffs(3, -1, 2); err == nil {
		t.Error("accepted negative lo")
	}
	if _, err := ChebyshevCoeffs(3, 2, 1); err == nil {
		t.Error("accepted inverted interval")
	}
	// Degree 1 on [a, b]: p(t) = 2/(a+b), the optimal constant.
	cs, err := ChebyshevCoeffs(1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cs[0]-0.5) > 1e-12 {
		t.Errorf("degree-1 coefficient = %g, want 0.5", cs[0])
	}
}

func TestNeumannSeriesMatchesLoop(t *testing.T) {
	a, p := spdPlanMatrix(t, "cage14", 0.001)
	n := a.Rows
	v := pseudoVec(n, 13)
	damp := 0.7
	k := 6
	got, err := NeumannSeries(p, v, damp, k, true)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: explicit loop.
	want := make([]float64, n)
	x := append([]float64(nil), v...)
	w := 1 - damp
	for i := range want {
		want[i] = w * v[i]
	}
	for pow := 1; pow <= k; pow++ {
		x, err = p.MPK(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		w *= damp
		for i := range want {
			want[i] += w * x[i]
		}
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("Neumann[%d] differs: %g vs %g", i, got[i], want[i])
		}
	}
	if _, err := NeumannSeries(p, v, damp, 0, true); err == nil {
		t.Error("accepted order 0")
	}
}

func TestPowerMethodFindsDominantEigenvalue(t *testing.T) {
	// Diagonal matrix with known spectrum.
	tr, err := fbmpk.NewTriplets(5, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := 7.5
	for i, v := range []float64{1, 2, -3, want, 0.5} {
		tr.Add(i, i, v)
	}
	a := tr.ToCSR()
	p, err := fbmpk.NewPlan(a, fbmpk.Options{Engine: fbmpk.EngineForwardBackward, BtB: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := PowerMethod(p, []float64{1, 1, 1, 1, 1}, 3, 200, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda-want) > 1e-6 {
		t.Errorf("lambda = %g, want %g", res.Lambda, want)
	}
	if _, err := PowerMethod(p, []float64{0, 0, 0, 0, 0}, 2, 5, 1e-6); err == nil {
		t.Error("accepted zero start vector")
	}
	if _, err := PowerMethod(p, []float64{1, 1, 1, 1}, 2, 5, 1e-6); err == nil {
		t.Error("accepted short start vector")
	}
	if _, err := PowerMethod(p, []float64{1, 1, 1, 1, 1}, 0, 5, 1e-6); err == nil {
		t.Error("accepted block=0")
	}
}

func TestKrylovBasisOrthonormal(t *testing.T) {
	a, p := spdPlanMatrix(t, "shipsec1", 0.001)
	x0 := pseudoVec(a.Rows, 17)
	s := 5
	basis, err := KrylovBasis(p, x0, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(basis) < 2 || len(basis) > s+1 {
		t.Fatalf("basis size %d", len(basis))
	}
	for i := range basis {
		for j := range basis {
			d := dot(basis[i], basis[j])
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(d-want) > 1e-8 {
				t.Fatalf("<q%d, q%d> = %g, want %g", i, j, d, want)
			}
		}
	}
}

func TestKrylovBasisDeficient(t *testing.T) {
	// Identity matrix: Krylov space is 1-dimensional.
	tr, err := fbmpk.NewTriplets(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tr.Add(i, i, 1)
	}
	p, err := fbmpk.NewPlan(tr.ToCSR(), fbmpk.Options{Engine: fbmpk.EngineForwardBackward})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	basis, err := KrylovBasis(p, []float64{1, 2, 3, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(basis) != 1 {
		t.Errorf("identity Krylov basis size %d, want 1", len(basis))
	}
	if _, err := KrylovBasis(p, []float64{1, 2, 3, 4}, 0); err == nil {
		t.Error("accepted s=0")
	}
	if _, err := KrylovBasis(p, []float64{0, 0, 0, 0}, 3); err == nil {
		t.Error("accepted zero start vector")
	}
}
