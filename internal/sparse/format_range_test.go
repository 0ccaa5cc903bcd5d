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

// rangeFormat is a storage format's whole and row-range SpMV.
type rangeFormat interface {
	SpMV(x, y []float64)
	SpMVRange(x, y []float64, lo, hi int)
}

// checkRanges holds a format, built from a random matrix of each size
// n in every shape, to refSpMV: whole, and piecewise over aligned and
// unaligned storage-row splits (cut after the first cut rows, and just
// past the middle).
func checkRanges(t *testing.T, seed int64, ns []int, cut int, shapes [][2]int, build func(a *CSR, shape [2]int) rangeFormat) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, n := range ns {
		a := randomCSR(rng, n, 4)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		want := refSpMV(a, x)
		for _, shape := range shapes {
			f := build(a, shape)
			full := make([]float64, n)
			f.SpMV(x, full)
			if d := maxAbsDiff(t, full, want); d > 1e-12 {
				t.Fatalf("n=%d shape=%v: SpMV deviates %g", n, shape, d)
			}
			for _, cuts := range [][]int{{0, n}, {0, n / 2, n}, {0, cut, n/2 + 1, n}} {
				y := make([]float64, n)
				for ci := 0; ci+1 < len(cuts); ci++ {
					f.SpMVRange(x, y, cuts[ci], cuts[ci+1])
				}
				if d := maxAbsDiff(t, y, want); d > 1e-12 {
					t.Fatalf("n=%d shape=%v cuts=%v: SpMVRange deviates %g", n, shape, cuts, d)
				}
			}
		}
	}
}

// TestSELLSpMVRange: SELL at chunk height C and sort window sigma.
func TestSELLSpMVRange(t *testing.T) {
	checkRanges(t, 71, []int{1, 7, 33, 100}, 3, [][2]int{{4, 1}, {4, 16}, {8, 32}, {16, 16}},
		func(a *CSR, s [2]int) rangeFormat { return ToSELL(a, s[0], s[1]) })
}

// TestBSRSpMVRange: BSR at r x c blocks, square and not.
func TestBSRSpMVRange(t *testing.T) {
	checkRanges(t, 73, []int{1, 6, 35, 99}, 1, [][2]int{{2, 2}, {3, 3}, {4, 4}, {2, 3}, {5, 5}},
		func(a *CSR, s [2]int) rangeFormat { return ToBSR(a, s[0], s[1]) })
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
