package fbmpk

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"fbmpk/internal/core"
	"fbmpk/internal/graph"
	"fbmpk/internal/reorder"
)

func normInfTest(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func onesVec(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

func TestPublicAPISmoke(t *testing.T) {
	a, err := GenerateSuiteMatrix("shipsec1", 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := onesVec(a.Rows)
	const k = 5

	want, err := StandardMPK(a, x0, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MPK(a, x0, k, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	scale := 1 + normInfTest(want)
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > 1e-6*scale {
			t.Fatalf("MPK[%d] differs: %g vs %g", i, got[i], want[i])
		}
	}
	// FBMPK reassociates the floating-point sums, so agreement is to
	// roundoff accumulated over k applications, not bitwise.
	if err := Verify(a, x0, got, k, 1e-6); err != nil {
		t.Errorf("Verify rejected a correct result: %v", err)
	}
	got[0] += 1e3 * (1 + normInfTest(want))
	if err := Verify(a, x0, got, k, 1e-6); err == nil {
		t.Error("Verify accepted a corrupted result")
	}
}

func TestPublicSSpMV(t *testing.T) {
	a, err := GenerateSuiteMatrix("G3_circuit", 0.002, 2)
	if err != nil {
		t.Fatal(err)
	}
	x0 := onesVec(a.Rows)
	coeffs := []float64{1, 0.5, 0.25}
	y, err := SSpMV(a, coeffs, x0, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	// Reference via the standard engine.
	ref, err := SSpMV(a, coeffs, x0, Options{Engine: EngineStandard})
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if d := math.Abs(y[i] - ref[i]); d > 1e-9 {
			t.Fatalf("SSpMV[%d] differs by %g", i, d)
		}
	}
}

// mustTriplets builds a triplet accumulator, failing the test on the
// (impossible for valid literals) error path.
func mustTriplets(t *testing.T, rows, cols, capHint int) *Triplets {
	t.Helper()
	tr, err := NewTriplets(rows, cols, capHint)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTripletsBuilder(t *testing.T) {
	tr := mustTriplets(t, 3, 3, 4)
	tr.Add(0, 0, 2)
	tr.Add(1, 1, 3)
	tr.Add(2, 2, 4)
	tr.Add(0, 1, -1)
	a := tr.ToCSR()
	x, err := MPK(a, []float64{1, 1, 1}, 2, Options{Engine: EngineForwardBackward, BtB: true})
	if err != nil {
		t.Fatal(err)
	}
	// A = [[2,-1,0],[0,3,0],[0,0,4]]; A^2 [1,1,1] = [1... compute:
	// A*[1,1,1] = [1,3,4]; A*[1,3,4] = [2-3, 9, 16] = [-1,9,16].
	want := []float64{-1, 9, 16}
	for i := range want {
		if x[i] != want[i] { // small integers: every product and sum is exact
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestMatrixMarketRoundTripPublic(t *testing.T) {
	a, err := GenerateSuiteMatrix("cant", 0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cant.mtx")
	if err := SaveMatrixMarket(path, a); err != nil {
		t.Fatal(err)
	}
	back, sym, err := LoadMatrixMarket(path)
	if err != nil {
		t.Fatal(err)
	}
	if sym {
		t.Error("general writer should not produce a symmetric header")
	}
	if !reflect.DeepEqual(a, back) {
		t.Error("round trip changed the matrix")
	}
}

func TestSuiteNamesComplete(t *testing.T) {
	names := SuiteNames()
	if len(names) != 14 {
		t.Fatalf("suite has %d names", len(names))
	}
	if _, err := GenerateSuiteMatrix("not-a-matrix", 0.01, 1); err == nil {
		t.Error("accepted unknown suite matrix")
	}
}

// The error boundary of the package-level functions (the Plan methods'
// is the typed-error column of the conformance table): every misuse
// returns an error wrapping one of the exported sentinels — matchable
// with errors.Is — instead of panicking. See README "Error semantics".

func TestNewPlanRejectsBadMatrices(t *testing.T) {
	if _, err := NewPlan(nil, Options{}); !errors.Is(err, ErrInvalidMatrix) {
		t.Errorf("nil matrix: got %v, want ErrInvalidMatrix", err)
	}

	rect := mustTriplets(t, 2, 3, 1).ToCSR()
	if _, err := NewPlan(rect, Options{}); !errors.Is(err, ErrNotSquare) {
		t.Errorf("rectangular matrix: got %v, want ErrNotSquare", err)
	}

	// Structurally corrupt CSR: row pointers not monotone.
	corrupt := &Matrix{
		Rows: 2, Cols: 2,
		RowPtr: []int64{0, 2, 1},
		ColIdx: []int32{0, 1},
		Val:    []float64{1, 1},
	}
	if _, err := NewPlan(corrupt, Options{}); !errors.Is(err, ErrInvalidMatrix) {
		t.Errorf("corrupt CSR: got %v, want ErrInvalidMatrix", err)
	}

	// Column index out of range.
	badCol := &Matrix{
		Rows: 2, Cols: 2,
		RowPtr: []int64{0, 1, 2},
		ColIdx: []int32{0, 5},
		Val:    []float64{1, 1},
	}
	if _, err := NewPlan(badCol, Options{}); !errors.Is(err, ErrInvalidMatrix) {
		t.Errorf("out-of-range column: got %v, want ErrInvalidMatrix", err)
	}
}

// TestNewPlanRejectsUnknownEngine: an Engine that is none of the four
// constants fails NewPlan, and a registry Acquire, with ErrBadEngine —
// and the registry caches nothing for it.
func TestNewPlanRejectsUnknownEngine(t *testing.T) {
	a := chains(1, 4, -1)
	reg := NewRegistry(2)
	defer reg.Close()
	for _, e := range []Engine{Engine(9), Engine(-1)} {
		if _, err := NewPlan(a, Options{Engine: e}); !errors.Is(err, ErrBadEngine) {
			t.Errorf("%v: NewPlan err = %v, want ErrBadEngine", e, err)
		}
		if _, err := reg.Acquire(a, WithEngine(e)); !errors.Is(err, ErrBadEngine) {
			t.Errorf("%v: Acquire err = %v, want ErrBadEngine", e, err)
		}
	}
	if s := reg.Stats(); s.Entries != 0 {
		t.Errorf("the registry cached %d entries", s.Entries)
	}
}

func TestPackageFunctionErrors(t *testing.T) {
	a := chains(1, 4, -1)
	x := []float64{1, 2, 3, 4}

	if _, err := StandardMPK(nil, x, 2); !errors.Is(err, ErrInvalidMatrix) {
		t.Errorf("StandardMPK nil matrix: got %v, want ErrInvalidMatrix", err)
	}
	if _, err := StandardMPK(a, x, 0); !errors.Is(err, ErrBadPower) {
		t.Errorf("StandardMPK k=0: got %v, want ErrBadPower", err)
	}
	if _, err := StandardMPK(a, x[:2], 2); !errors.Is(err, ErrDimension) {
		t.Errorf("StandardMPK short x: got %v, want ErrDimension", err)
	}

	if _, err := MPK(nil, x, 2, Options{}); !errors.Is(err, ErrInvalidMatrix) {
		t.Errorf("MPK nil matrix: got %v, want ErrInvalidMatrix", err)
	}
	if _, err := SSpMV(a, nil, x, Options{}); !errors.Is(err, ErrBadCoeffs) {
		t.Errorf("SSpMV no coeffs: got %v, want ErrBadCoeffs", err)
	}
	if _, err := MPKMulti(a, nil, 2, Options{}); !errors.Is(err, ErrEmptyBlock) {
		t.Errorf("MPKMulti empty block: got %v, want ErrEmptyBlock", err)
	}
	if _, err := SSpMVMulti(a, []float64{1}, nil, Options{}); !errors.Is(err, ErrEmptyBlock) {
		t.Errorf("SSpMVMulti empty block: got %v, want ErrEmptyBlock", err)
	}

	if err := Verify(a, x, x[:2], 1, 1e-10); !errors.Is(err, ErrDimension) {
		t.Errorf("Verify short result: got %v, want ErrDimension", err)
	}

	if err := SaveMatrixMarket(filepath.Join(t.TempDir(), "x.mtx"), nil); !errors.Is(err, ErrInvalidMatrix) {
		t.Errorf("SaveMatrixMarket nil matrix: got %v, want ErrInvalidMatrix", err)
	}
}

// TestBuildPrimitivesRejectRectangular reaches under the public API,
// which validates before any of these runs: every structure-building
// primitive that needs a square matrix must say so with the same
// sentinel, whichever package it lives in.
func TestBuildPrimitivesRejectRectangular(t *testing.T) {
	rect := mustTriplets(t, 2, 3, 1).ToCSR()
	for name, call := range map[string]func() error{
		"graph.FromCSRPattern": func() error { _, err := graph.FromCSRPattern(rect, nil); return err },
		"graph.BlockGraphPool": func() error { _, err := graph.BlockGraphPool(rect, []int32{0, 2}, nil); return err },
		"core.BFSLevels":       func() error { _, err := core.BFSLevels(rect); return err },
		"reorder.RCM":          func() error { _, err := reorder.RCM(rect); return err },
		"reorder.ABMC":         func() error { _, err := reorder.ABMC(rect, reorder.ABMCOptions{}); return err },
		"Perm.ApplySym":        func() error { _, err := reorder.Perm{0, 1}.ApplySym(rect); return err },
		"Perm.ValueMap":        func() error { _, err := reorder.Perm{0, 1}.ValueMap(rect); return err },
		"LevelBlockedMPK":      func() error { _, err := LevelBlockedMPK(rect, []float64{1, 2}, 2, 0); return err },
	} {
		if err := call(); !errors.Is(err, ErrNotSquare) {
			t.Errorf("%s on a 2x3 matrix: got %v, want ErrNotSquare", name, err)
		}
	}
}

// TestNewTripletsRejectsNegativeArgs checks that the builder reports
// negative dimensions and capacity hints as typed errors instead of
// clamping them.
func TestNewTripletsRejectsNegativeArgs(t *testing.T) {
	if _, err := NewTriplets(-1, 3, 0); !errors.Is(err, ErrInvalidMatrix) {
		t.Errorf("negative rows: got %v, want ErrInvalidMatrix", err)
	}
	if _, err := NewTriplets(3, -1, 0); !errors.Is(err, ErrInvalidMatrix) {
		t.Errorf("negative cols: got %v, want ErrInvalidMatrix", err)
	}
	if _, err := NewTriplets(3, 3, -1); !errors.Is(err, ErrInvalidMatrix) {
		t.Errorf("negative capHint: got %v, want ErrInvalidMatrix", err)
	}
	if tr, err := NewTriplets(0, 0, 0); err != nil || tr == nil {
		t.Errorf("zero-dimensional builder: got (%v, %v), want a usable builder", tr, err)
	}
}

// TestMPKMultiOneShot: the package-level one-shot block wrappers build
// the plan their options name and return what its methods return.
func TestMPKMultiOneShot(t *testing.T) {
	b := zoo(t, "golden")[0]
	coeffs, _, _, _ := polynomial(2)
	for _, opt := range []Options{DefaultOptions(2), DefaultOptions(1)} {
		p, err := NewPlan(b.a, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		got, err := MPKMulti(b.a, b.block(4), 3, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.MPKMulti(b.block(4), 3)
		if err != nil {
			t.Fatal(err)
		}
		compare(t, "MPKMulti one-shot vs plan", got, want, nil)
		got, err = SSpMVMulti(b.a, coeffs, b.block(4), opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err = p.SSpMVMulti(coeffs, b.block(4))
		if err != nil {
			t.Fatal(err)
		}
		compare(t, "SSpMVMulti one-shot vs plan", got, want, nil)
	}
}
