package solver

import (
	"errors"
	"math"
	"sort"
	"testing"

	"fbmpk"
)

// diagPlan builds a serial FBMPK plan on the diagonal matrix diag(diag).
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

func TestJacobiEigenDiagonalizes(t *testing.T) {
	a := [][]float64{
		{4, 1, 0.5},
		{1, 3, -0.25},
		{0.5, -0.25, 2},
	}
	eigs, w := jacobiEigen(a)
	// Check A w_j = lambda_j w_j for each column j.
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += a[i][k] * w[k][j]
			}
			if math.Abs(s-eigs[j]*w[i][j]) > 1e-9 {
				t.Fatalf("column %d not an eigenvector (row %d off by %g)",
					j, i, s-eigs[j]*w[i][j])
			}
		}
	}
	// Trace preserved.
	if math.Abs(eigs[0]+eigs[1]+eigs[2]-9) > 1e-9 {
		t.Errorf("trace = %g, want 9", eigs[0]+eigs[1]+eigs[2])
	}
}

func TestSubspaceIterationDiagonal(t *testing.T) {
	diag := []float64{10, 7, 5, 1, 0.5, 0.1}
	p := diagPlan(t, diag)
	res, err := SubspaceIteration(p, 3, 3, 200, 1e-8, 42)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]float64(nil), res.Lambdas...)
	sort.Sort(sort.Reverse(sort.Float64Slice(got)))
	want := []float64{10, 7, 5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-5 {
			t.Errorf("lambda[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Ritz vectors orthonormal.
	for i := range res.Vectors {
		for j := range res.Vectors {
			wantD := 0.0
			if i == j {
				wantD = 1
			}
			if math.Abs(dot(res.Vectors[i], res.Vectors[j])-wantD) > 1e-8 {
				t.Fatalf("Ritz vectors not orthonormal at (%d,%d)", i, j)
			}
		}
	}
}

func TestSubspaceIterationSuiteMatrix(t *testing.T) {
	a, p := spdPlanMatrix(t, "shipsec1", 0.001)
	res, err := SubspaceIteration(p, 2, 2, 300, 1e-4, 7)
	if err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	// Leading Ritz value must agree with the power method.
	pm, errPM := PowerMethod(p, pseudoVec(a.Rows, 3), 4, 300, 1e-6)
	if errPM != nil && !errors.Is(errPM, ErrNotConverged) {
		t.Fatal(errPM)
	}
	if rel := math.Abs(res.Lambdas[0]-pm.Lambda) / math.Abs(pm.Lambda); rel > 1e-2 {
		t.Errorf("subspace lambda %g vs power method %g (rel %g)",
			res.Lambdas[0], pm.Lambda, rel)
	}
}

func TestSubspaceIterationErrors(t *testing.T) {
	p := diagPlan(t, []float64{1, 2, 3})
	if _, err := SubspaceIteration(p, 0, 2, 5, 1e-6, 1); err == nil {
		t.Error("accepted nPairs=0")
	}
	if _, err := SubspaceIteration(p, 4, 2, 5, 1e-6, 1); err == nil {
		t.Error("accepted nPairs > n")
	}
	if _, err := SubspaceIteration(p, 2, 0, 5, 1e-6, 1); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := SubspaceIteration(p, 2, 2, 0, 1e-6, 1); err == nil {
		t.Error("accepted maxBlocks=0")
	}
}

func TestPlanMPKMulti(t *testing.T) {
	// The block path subspace iteration advances on — SpMM under the
	// standard engine, the batched pipeline on the reordered parallel
	// FB plan — must equal per-vector MPK.
	a, err := fbmpk.GenerateSuiteMatrix("cant", 0.002, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []fbmpk.Options{
		{Engine: fbmpk.EngineStandard},
		fbmpk.DefaultOptions(2),
	} {
		p, err := fbmpk.NewPlan(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		xs := [][]float64{pseudoVec(a.Rows, 1), pseudoVec(a.Rows, 2), pseudoVec(a.Rows, 3)}
		out, err := p.MPKMulti(xs, 4)
		if err != nil {
			t.Fatal(err)
		}
		for c := range xs {
			want, err := p.MPK(xs[c], 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if d := math.Abs(out[c][i] - want[i]); d > 1e-8*(1+math.Abs(want[i])) {
					t.Fatalf("batch vector %d differs at %d by %g", c, i, d)
				}
			}
		}
		if _, err := p.MPKMulti(nil, 2); err == nil {
			t.Error("accepted empty batch")
		}
		if _, err := p.MPKMulti([][]float64{make([]float64, a.Rows-1)}, 2); err == nil {
			t.Error("accepted short vector")
		}
		p.Close()
	}
}
