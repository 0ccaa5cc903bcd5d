package fbmpk

// Degenerate-shape coverage: empty and 1x1 matrices, degree-0 and
// degree-1 polynomials, empty blocks, and more workers than rows. All
// engine combinations must handle every shape; historically several of
// these hit validation holes (see the ForceABMC degree-0 regression
// below) rather than clean errors or correct results.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestDegenerateShapes drives every engine combination with 0x0 and
// 1x1 matrices (with and without a stored diagonal) through all plan
// entry points.
func TestDegenerateShapes(t *testing.T) {
	empty := mustTriplets(t, 0, 0, 0).ToCSR()
	one := mustTriplets(t, 1, 1, 1)
	one.Add(0, 0, 2.5)
	oneDiag := one.ToCSR()
	oneEmpty := mustTriplets(t, 1, 1, 0).ToCSR()

	mats := []struct {
		name string
		a    *Matrix
		x    []float64
		xk3  []float64 // A^3 x
	}{
		{"0x0", empty, []float64{}, []float64{}},
		{"1x1-diag", oneDiag, []float64{2}, []float64{2 * 2.5 * 2.5 * 2.5}},
		{"1x1-empty", oneEmpty, []float64{2}, []float64{0}},
	}
	for _, m := range mats {
		for _, c := range engineCases(4) {
			t.Run(m.name+"/"+c.name, func(t *testing.T) {
				a := c.matrix(t, m.a) // 0x0 and 1x1: RCM is the identity
				p, err := NewPlan(a, c.opt)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()

				got, err := p.MPK(m.x, 3)
				if err != nil {
					t.Fatal(err)
				}
				if d := relMaxDiff(t, got, m.xk3); d > diffTol {
					t.Errorf("MPK: deviation %g", d)
				}

				if _, err := p.MPK(m.x, 0); !errors.Is(err, ErrBadPower) {
					t.Errorf("MPK k=0: got %v, want ErrBadPower", err)
				}

				combo, err := p.SSpMV([]float64{2, -1}, m.x)
				if err != nil {
					t.Fatal(err)
				}
				want := refSSpMV(t, a, []float64{2, -1}, m.x)
				if d := relMaxDiff(t, combo, want); d > diffTol {
					t.Errorf("SSpMV: deviation %g", d)
				}

				all, err := p.MPKAll(m.x, 2)
				if err != nil {
					t.Fatal(err)
				}
				if len(all) != 3 {
					t.Fatalf("MPKAll returned %d vectors, want 3", len(all))
				}

				xs := [][]float64{
					append([]float64(nil), m.x...),
					append([]float64(nil), m.x...),
				}
				multi, err := p.MPKMulti(xs, 3)
				if err != nil {
					t.Fatal(err)
				}
				for j := range multi {
					if d := relMaxDiff(t, multi[j], m.xk3); d > diffTol {
						t.Errorf("MPKMulti col %d: deviation %g", j, d)
					}
				}

				if c.opt.Engine == EngineForwardBackward {
					b := make([]float64, len(m.x))
					x := append([]float64(nil), m.x...)
					if err := p.SymGS(b, x, 1); err != nil {
						t.Errorf("SymGS: %v", err)
					}
				}
			})
		}
	}
}

// TestDegenerateCoeffsForceABMC is the regression test for the
// degenerate-coefficient bug: on a reordered plan (ForceABMC), SSpMV
// and SSpMVMulti with a single coefficient (degree-0 polynomial) used
// to hand the ABMC-permuted matrix to the standard kernel together
// with original-order vectors, silently mixing the two numberings.
// Degree 0 must be exact scaling, degree 1 must match the baseline,
// and a wrong-length vector must be rejected (the broken path also
// skipped length validation).
func TestDegenerateCoeffsForceABMC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := diffMatrix(rng, 24, 0)
	x := diffVec(rng, 24)

	for _, c := range engineCases(4) {
		t.Run(c.name, func(t *testing.T) {
			a := c.matrix(t, a)
			p, err := NewPlan(a, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			// Degree 0: y = 3x exactly, in the original ordering.
			y, err := p.SSpMV([]float64{3}, x)
			if err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if y[i] != 3*x[i] {
					t.Fatalf("degree-0 SSpMV at %d: got %g, want %g", i, y[i], 3*x[i])
				}
			}

			// Degree 1: y = 2x + Ax against the baseline.
			y, err = p.SSpMV([]float64{2, 1}, x)
			if err != nil {
				t.Fatal(err)
			}
			want := refSSpMV(t, a, []float64{2, 1}, x)
			if d := relMaxDiff(t, y, want); d > diffTol {
				t.Errorf("degree-1 SSpMV: deviation %g", d)
			}

			// Batched variants of the same two degrees.
			xs := [][]float64{x, diffVec(rng, 24)}
			ys, err := p.SSpMVMulti([]float64{3}, xs)
			if err != nil {
				t.Fatal(err)
			}
			for j := range xs {
				for i := range xs[j] {
					if ys[j][i] != 3*xs[j][i] {
						t.Fatalf("degree-0 SSpMVMulti col %d at %d: got %g, want %g",
							j, i, ys[j][i], 3*xs[j][i])
					}
				}
			}
			ys, err = p.SSpMVMulti([]float64{2, 1}, xs)
			if err != nil {
				t.Fatal(err)
			}
			for j := range xs {
				want := refSSpMV(t, a, []float64{2, 1}, xs[j])
				if d := relMaxDiff(t, ys[j], want); d > diffTol {
					t.Errorf("degree-1 SSpMVMulti col %d: deviation %g", j, d)
				}
			}

			// The degenerate path must still validate shapes.
			if _, err := p.SSpMV([]float64{3}, x[:5]); !errors.Is(err, ErrDimension) {
				t.Errorf("degree-0 SSpMV short x: got %v, want ErrDimension", err)
			}
			if _, err := p.SSpMVMulti([]float64{3}, [][]float64{x[:5]}); !errors.Is(err, ErrDimension) {
				t.Errorf("degree-0 SSpMVMulti short x: got %v, want ErrDimension", err)
			}
			if _, err := p.SSpMVMulti([]float64{3}, nil); !errors.Is(err, ErrEmptyBlock) {
				t.Errorf("degree-0 SSpMVMulti empty block: got %v, want ErrEmptyBlock", err)
			}
		})
	}
}

// TestMoreThreadsThanRows builds plans whose worker count exceeds the
// row count; the partitioners must produce (possibly empty) valid
// ranges for every worker.
func TestMoreThreadsThanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 5} {
		a := diffMatrix(rng, n, 3)
		x := diffVec(rng, n)
		want, err := StandardMPK(a, x, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []Engine{EngineStandard, EngineForwardBackward} {
			t.Run(fmt.Sprintf("n%d/%v", n, engine), func(t *testing.T) {
				p, err := NewPlan(a, Options{
					Engine: engine, BtB: true, Threads: 8,
					NumBlocks: 4, SelfCheck: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				got, err := p.MPK(x, 4)
				if err != nil {
					t.Fatal(err)
				}
				if d := relMaxDiff(t, got, want); d > diffTol {
					t.Errorf("deviation %g", d)
				}
			})
		}
	}
}
