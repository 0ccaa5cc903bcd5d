package fbmpk

// Error-boundary contract: every misuse of the public API returns an
// error wrapping one of the exported sentinels — matchable with
// errors.Is — instead of panicking. See the README "Error semantics"
// section.

import (
	"errors"
	"path/filepath"
	"testing"

	"fbmpk/internal/core"
	"fbmpk/internal/graph"
	"fbmpk/internal/reorder"
)

func validSquare(t *testing.T) *Matrix {
	t.Helper()
	tr := mustTriplets(t, 4, 4, 8)
	for i := 0; i < 4; i++ {
		tr.Add(i, i, 2)
		if i > 0 {
			tr.Add(i, i-1, -1)
		}
	}
	return tr.ToCSR()
}

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

func TestPlanMethodErrors(t *testing.T) {
	a := validSquare(t)
	for _, c := range engineCases(2) {
		t.Run(c.name, func(t *testing.T) {
			p, err := NewPlan(c.matrix(t, a), c.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			x := []float64{1, 2, 3, 4}
			short := []float64{1, 2}

			if _, err := p.MPK(short, 2); !errors.Is(err, ErrDimension) {
				t.Errorf("MPK short x: got %v, want ErrDimension", err)
			}
			if _, err := p.MPK(x, 0); !errors.Is(err, ErrBadPower) {
				t.Errorf("MPK k=0: got %v, want ErrBadPower", err)
			}
			if _, err := p.MPK(x, -3); !errors.Is(err, ErrBadPower) {
				t.Errorf("MPK k=-3: got %v, want ErrBadPower", err)
			}
			if _, err := p.MPKAll(x, 0); !errors.Is(err, ErrBadPower) {
				t.Errorf("MPKAll k=0: got %v, want ErrBadPower", err)
			}
			if _, err := p.MPKAll(short, 2); !errors.Is(err, ErrDimension) {
				t.Errorf("MPKAll short x: got %v, want ErrDimension", err)
			}

			if _, err := p.SSpMV(nil, x); !errors.Is(err, ErrBadCoeffs) {
				t.Errorf("SSpMV no coeffs: got %v, want ErrBadCoeffs", err)
			}
			if _, err := p.SSpMV([]float64{1, 2}, short); !errors.Is(err, ErrDimension) {
				t.Errorf("SSpMV short x: got %v, want ErrDimension", err)
			}
			if _, _, err := p.SSpMVComplex(nil, x); !errors.Is(err, ErrBadCoeffs) {
				t.Errorf("SSpMVComplex no coeffs: got %v, want ErrBadCoeffs", err)
			}
			if _, _, err := p.SSpMVComplex([]complex128{1i}, short); !errors.Is(err, ErrDimension) {
				t.Errorf("SSpMVComplex short x: got %v, want ErrDimension", err)
			}

			if _, err := p.MPKMulti(nil, 2); !errors.Is(err, ErrEmptyBlock) {
				t.Errorf("MPKMulti empty block: got %v, want ErrEmptyBlock", err)
			}
			if _, err := p.MPKMulti([][]float64{x, short}, 2); !errors.Is(err, ErrDimension) {
				t.Errorf("MPKMulti ragged block: got %v, want ErrDimension", err)
			}
			if _, err := p.MPKMulti([][]float64{x}, 0); !errors.Is(err, ErrBadPower) {
				t.Errorf("MPKMulti k=0: got %v, want ErrBadPower", err)
			}
			if _, err := p.SSpMVMulti(nil, [][]float64{x}); !errors.Is(err, ErrBadCoeffs) {
				t.Errorf("SSpMVMulti no coeffs: got %v, want ErrBadCoeffs", err)
			}
			if _, err := p.SSpMVMulti([]float64{1, 2}, nil); !errors.Is(err, ErrEmptyBlock) {
				t.Errorf("SSpMVMulti empty block: got %v, want ErrEmptyBlock", err)
			}

			b := make([]float64, 4)
			if p.Engine() != EngineForwardBackward {
				// Standard and level-blocked plans hold no L+D+U split, so
				// SymGS rejects the engine before argument validation (an
				// EngineAuto plan may resolve either way).
				if err := p.SymGS(b, x, 1); !errors.Is(err, ErrNoSplit) {
					t.Errorf("SymGS on splitless plan: got %v, want ErrNoSplit", err)
				}
			} else {
				if err := p.SymGS(b, x, 0); !errors.Is(err, ErrBadSweeps) {
					t.Errorf("SymGS sweeps=0: got %v, want ErrBadSweeps", err)
				}
				if err := p.SymGS(short, x, 1); !errors.Is(err, ErrDimension) {
					t.Errorf("SymGS short b: got %v, want ErrDimension", err)
				}
			}
		})
	}
}

func TestPackageFunctionErrors(t *testing.T) {
	a := validSquare(t)
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
		"graph.FromCSRPattern": func() error { _, err := graph.FromCSRPattern(rect); return err },
		"graph.BlockGraph":     func() error { _, err := graph.BlockGraph(rect, []int32{0, 2}); return err },
		"core.BFSLevels":       func() error { _, err := core.BFSLevels(rect); return err },
		"reorder.RCM":          func() error { _, err := reorder.RCM(rect); return err },
		"reorder.ABMC":         func() error { _, err := reorder.ABMC(rect, reorder.ABMCOptions{}); return err },
		"Perm.ApplySym":        func() error { _, err := reorder.Identity(2).ApplySym(rect); return err },
		"Perm.ValueMap":        func() error { _, err := reorder.Identity(2).ValueMap(rect); return err },
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
