package fbmpk

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// TestCtxParity audits the context-first API contract: every
// context-free entry point must behave identically to its *Ctx twin
// under context.Background() — same results bitwise, same errors, on
// both valid and invalid inputs. Each pair runs against its own
// freshly built plan (same matrix, same options build bitwise-identical
// plans), so state-mutating pairs like UpdateValues compare cleanly.
func TestCtxParity(t *testing.T) {
	a, err := GenerateSuiteMatrix("cant", 0.002, 4)
	if err != nil {
		t.Fatal(err)
	}
	a2 := &Matrix{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int64(nil), a.RowPtr...),
		ColIdx: append([]int32(nil), a.ColIdx...),
		Val:    make([]float64, len(a.Val)),
	}
	for i, v := range a.Val {
		a2.Val[i] = 2*v - 0.5
	}
	n := a.Rows
	rng := rand.New(rand.NewSource(17))
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	xs := [][]float64{x0, append([]float64(nil), x0...)}
	coeffs := []float64{1, -0.5, 0.25}
	ccoeffs := []complex128{1, complex(0, 1), complex(-0.5, 0.25)}
	bg := context.Background()

	// Each case returns (results, error); idx 0 runs the context-free
	// form, idx 1 the *Ctx form with context.Background().
	cases := []struct {
		name string
		call func(p *Plan, useCtx bool) (any, error)
	}{
		{"MPK", func(p *Plan, c bool) (any, error) {
			if c {
				return p.MPKCtx(bg, x0, 3)
			}
			return p.MPK(x0, 3)
		}},
		{"MPK/bad-power", func(p *Plan, c bool) (any, error) {
			if c {
				return p.MPKCtx(bg, x0, 0)
			}
			return p.MPK(x0, 0)
		}},
		{"SSpMV", func(p *Plan, c bool) (any, error) {
			if c {
				return p.SSpMVCtx(bg, coeffs, x0)
			}
			return p.SSpMV(coeffs, x0)
		}},
		{"SSpMV/bad-coeffs", func(p *Plan, c bool) (any, error) {
			if c {
				return p.SSpMVCtx(bg, nil, x0)
			}
			return p.SSpMV(nil, x0)
		}},
		{"SSpMVComplex", func(p *Plan, c bool) (any, error) {
			var re, im []float64
			var err error
			if c {
				re, im, err = p.SSpMVComplexCtx(bg, ccoeffs, x0)
			} else {
				re, im, err = p.SSpMVComplex(ccoeffs, x0)
			}
			return [][]float64{re, im}, err
		}},
		{"SymGS", func(p *Plan, c bool) (any, error) {
			x := make([]float64, n)
			var err error
			if c {
				err = p.SymGSCtx(bg, x0, x, 2)
			} else {
				err = p.SymGS(x0, x, 2)
			}
			return x, err
		}},
		{"SymGS/bad-sweeps", func(p *Plan, c bool) (any, error) {
			x := make([]float64, n)
			if c {
				return nil, p.SymGSCtx(bg, x0, x, 0)
			}
			return nil, p.SymGS(x0, x, 0)
		}},
		{"MPKAll", func(p *Plan, c bool) (any, error) {
			if c {
				return p.MPKAllCtx(bg, x0, 3)
			}
			return p.MPKAll(x0, 3)
		}},
		{"MPKMulti", func(p *Plan, c bool) (any, error) {
			if c {
				return p.MPKMultiCtx(bg, xs, 3)
			}
			return p.MPKMulti(xs, 3)
		}},
		{"MPKMulti/empty-block", func(p *Plan, c bool) (any, error) {
			if c {
				return p.MPKMultiCtx(bg, nil, 3)
			}
			return p.MPKMulti(nil, 3)
		}},
		{"SSpMVMulti", func(p *Plan, c bool) (any, error) {
			if c {
				return p.SSpMVMultiCtx(bg, coeffs, xs)
			}
			return p.SSpMVMulti(coeffs, xs)
		}},
		{"UpdateValues", func(p *Plan, c bool) (any, error) {
			var err error
			if c {
				err = p.UpdateValuesCtx(bg, a2)
			} else {
				err = p.UpdateValues(a2)
			}
			if err != nil {
				return nil, err
			}
			y, err := p.MPK(x0, 3)
			return []any{p.Epoch(), y}, err
		}},
		{"UpdateValues/structure-delta", func(p *Plan, c bool) (any, error) {
			bad := &Matrix{Rows: 2, Cols: 2, RowPtr: []int64{0, 1, 2}, ColIdx: []int32{0, 1}, Val: []float64{1, 1}}
			if c {
				return nil, p.UpdateValuesCtx(bg, bad)
			}
			return nil, p.UpdateValues(bad)
		}},
	}

	for _, threads := range []int{0, 2} {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				pPlain, err := NewPlan(a, DefaultOptions(threads))
				if err != nil {
					t.Fatal(err)
				}
				defer pPlain.Close()
				pCtx, err := NewPlan(a, DefaultOptions(threads))
				if err != nil {
					t.Fatal(err)
				}
				defer pCtx.Close()

				gotPlain, errPlain := tc.call(pPlain, false)
				gotCtx, errCtx := tc.call(pCtx, true)

				if (errPlain == nil) != (errCtx == nil) {
					t.Fatalf("error divergence: plain=%v ctx=%v", errPlain, errCtx)
				}
				if errPlain != nil && errPlain.Error() != errCtx.Error() {
					t.Fatalf("error text divergence:\n  plain: %v\n  ctx:   %v", errPlain, errCtx)
				}
				if !reflect.DeepEqual(gotPlain, gotCtx) {
					t.Fatalf("result divergence between context-free and Ctx forms")
				}
			})
		}
	}
}
