package sparse

import (
	"math/rand"
	"testing"
)

// Range kernels of the SELL and BSR formats: every (format, range
// split, block shape) combination must reproduce the CSR reference row
// for row.

func refSpMV(a *CSR, x []float64) []float64 {
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		s := 0.0
		for k := range cols {
			s += vals[k] * x[int(cols[k])]
		}
		y[i] = s
	}
	return y
}

func maxAbsDiff(t *testing.T, got, want []float64) float64 {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: %d vs %d", len(got), len(want))
	}
	d := 0.0
	for i := range got {
		if e := got[i] - want[i]; e > d {
			d = e
		} else if -e > d {
			d = -e
		}
	}
	return d
}

func TestSELLSpMVRange(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 7, 33, 100} {
		a := randomCSR(rng, n, 4)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		want := refSpMV(a, x)
		for _, cfg := range [][2]int{{4, 1}, {4, 16}, {8, 32}, {16, 16}} {
			s := ToSELL(a, cfg[0], cfg[1])
			full := make([]float64, n)
			s.SpMV(x, full)
			if d := maxAbsDiff(t, full, want); d > 1e-12 {
				t.Fatalf("n=%d C=%d sigma=%d: SpMV deviates %g", n, cfg[0], cfg[1], d)
			}
			// Piecewise over aligned and unaligned storage-row splits.
			for _, cuts := range [][]int{{0, n}, {0, n / 2, n}, {0, 3, n/2 + 1, n}} {
				y := make([]float64, n)
				for ci := 0; ci+1 < len(cuts); ci++ {
					s.SpMVRange(x, y, cuts[ci], cuts[ci+1])
				}
				if d := maxAbsDiff(t, y, want); d > 1e-12 {
					t.Fatalf("n=%d C=%d sigma=%d cuts=%v: SpMVRange deviates %g", n, cfg[0], cfg[1], cuts, d)
				}
			}
		}
	}
}

func TestBSRSpMVRange(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, n := range []int{1, 6, 35, 99} {
		a := randomCSR(rng, n, 4)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		want := refSpMV(a, x)
		for _, blk := range [][2]int{{2, 2}, {3, 3}, {4, 4}, {2, 3}, {5, 5}} {
			b := ToBSR(a, blk[0], blk[1])
			full := make([]float64, n)
			b.SpMV(x, full)
			if d := maxAbsDiff(t, full, want); d > 1e-12 {
				t.Fatalf("n=%d r=%d c=%d: SpMV deviates %g", n, blk[0], blk[1], d)
			}
			for _, cuts := range [][]int{{0, n}, {0, n / 2, n}, {0, 1, n/2 + 1, n}} {
				y := make([]float64, n)
				for ci := 0; ci+1 < len(cuts); ci++ {
					b.SpMVRange(x, y, cuts[ci], cuts[ci+1])
				}
				if d := maxAbsDiff(t, y, want); d > 1e-12 {
					t.Fatalf("n=%d r=%d c=%d cuts=%v: SpMVRange deviates %g", n, blk[0], blk[1], cuts, d)
				}
			}
		}
	}
}

func TestCountBSRBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, n := range []int{1, 9, 40, 77, 1000} {
		a := randomCSR(rng, n, 3)
		for _, r := range []int{2, 3, 4} {
			want := int64(len(ToBSR(a, r, r).ColIdx))
			if got := CountBSRBlocks(a)[r-2]; got != want {
				t.Fatalf("n=%d r=%d: CountBSRBlocks = %d, ToBSR stores %d", n, r, got, want)
			}
		}
	}
}
