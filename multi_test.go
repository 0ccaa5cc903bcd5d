package fbmpk

import (
	"math"
	"math/rand"
	"testing"
)

func randTestBlock(rng *rand.Rand, n, m int) [][]float64 {
	xs := make([][]float64, m)
	for j := range xs {
		xs[j] = make([]float64, n)
		for i := range xs[j] {
			xs[j][i] = rng.NormFloat64()
		}
	}
	return xs
}

func relMaxDiffTest(got, want []float64) float64 {
	scale := 1 + normInfTest(want)
	d := 0.0
	for i := range want {
		if e := math.Abs(got[i]-want[i]) / scale; e > d {
			d = e
		}
	}
	return d
}

// TestMPKMultiMatchesIndependentSuite checks, across the whole matgen
// suite, that the batched multi-RHS pipeline matches m independent runs
// of the scalar pipeline to 1e-12 — for both stripe layouts, both
// parities of k, and with and without combination coefficients. The
// batched kernels accumulate each vector's sums in the same order as
// the scalar pipeline, so agreement is to roundoff noise, not just to
// iteration accuracy.
func TestMPKMultiMatchesIndependentSuite(t *testing.T) {
	const m = 3
	rng := rand.New(rand.NewSource(7))
	coeffs := []float64{0.3, -1.2, 0.8, 2.1, -0.5, 0.9}
	for _, name := range SuiteNames() {
		a, err := GenerateSuiteMatrix(name, 0.002, 1)
		if err != nil {
			t.Fatal(err)
		}
		xs := randTestBlock(rng, a.Rows, m)
		for _, btb := range []bool{false, true} {
			opt := DefaultOptions(2)
			opt.BtB = btb
			p, err := NewPlan(a, opt)
			if err != nil {
				t.Fatalf("%s btb=%v: %v", name, btb, err)
			}
			for _, k := range []int{4, 5} {
				got, err := p.MPKMulti(xs, k)
				if err != nil {
					t.Fatalf("%s btb=%v k=%d: %v", name, btb, k, err)
				}
				for j := 0; j < m; j++ {
					want, err := p.MPK(xs[j], k)
					if err != nil {
						t.Fatal(err)
					}
					if d := relMaxDiffTest(got[j], want); d > 1e-12 {
						t.Fatalf("%s btb=%v k=%d vector %d: rel diff %g",
							name, btb, k, j, d)
					}
				}
			}
			ys, err := p.SSpMVMulti(coeffs, xs)
			if err != nil {
				t.Fatalf("%s btb=%v SSpMVMulti: %v", name, btb, err)
			}
			for j := 0; j < m; j++ {
				want, err := p.SSpMV(coeffs, xs[j])
				if err != nil {
					t.Fatal(err)
				}
				if d := relMaxDiffTest(ys[j], want); d > 1e-12 {
					t.Fatalf("%s btb=%v combo vector %d: rel diff %g",
						name, btb, j, d)
				}
			}
			p.Close()
		}
	}
}

// TestMPKMultiOneShot covers the package-level one-shot block
// wrappers.
func TestMPKMultiOneShot(t *testing.T) {
	a, err := GenerateSuiteMatrix("cant", 0.002, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	xs := randTestBlock(rng, a.Rows, 4)
	got, err := MPKMulti(a, xs, 3, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	for j := range xs {
		want, err := MPK(a, xs[j], 3, DefaultOptions(2))
		if err != nil {
			t.Fatal(err)
		}
		if d := relMaxDiffTest(got[j], want); d > 1e-12 {
			t.Fatalf("vector %d: rel diff %g", j, d)
		}
	}
	coeffs := []float64{1, 0.5, 0.25}
	ys, err := SSpMVMulti(a, coeffs, xs, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	for j := range xs {
		want, err := SSpMV(a, coeffs, xs[j], DefaultOptions(1))
		if err != nil {
			t.Fatal(err)
		}
		if d := relMaxDiffTest(ys[j], want); d > 1e-12 {
			t.Fatalf("combo vector %d: rel diff %g", j, d)
		}
	}
}

// TestMPKMultiLaneIndependence: at m = 4 (the packed-arithmetic kernels)
// the bits of vector j's results do not depend on the other three start
// vectors — MPKMulti and SSpMVMulti, serial and 4 workers, each lane in
// turn kept while the rest of the block is replaced. A crossed lane or a
// broadcast of the wrong value moves bits that a 1e-10 comparison against
// Algorithm 1 on similar vectors could let through. One matrix has the
// stand-in's rows of two entries, one rows long enough to loop.
func TestMPKMultiLaneIndependence(t *testing.T) {
	const m = 4
	coeffs := []float64{0.3, -1.2, 0.8, 2.1, -0.5, 0.9}
	rng := rand.New(rand.NewSource(20))
	for _, name := range []string{"G3_circuit", "pwtk"} {
		a, err := GenerateSuiteMatrix(name, 0.004, 1)
		if err != nil {
			t.Fatal(err)
		}
		xs, zs := randTestBlock(rng, a.Rows, m), randTestBlock(rng, a.Rows, m)
		for _, threads := range []int{1, 4} {
			p, err := NewPlan(a, DefaultOptions(threads))
			if err != nil {
				t.Fatal(err)
			}
			run := func(block [][]float64) (out [][]float64) {
				for _, k := range []int{4, 5} {
					ys, err := p.MPKMulti(block, k)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, ys...)
				}
				ys, err := p.SSpMVMulti(coeffs, block)
				if err != nil {
					t.Fatal(err)
				}
				return append(out, ys...)
			}
			want := run(xs)
			for j := 0; j < m; j++ {
				block := append([][]float64(nil), zs...)
				block[j] = xs[j]
				got := run(block)
				for r := j; r < len(got); r += m {
					for i := range got[r] {
						if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
							t.Fatalf("%s threads=%d lane %d result %d row %d: %x, with the other lanes replaced %x",
								name, threads, j, r/m, i, math.Float64bits(want[r][i]), math.Float64bits(got[r][i]))
						}
					}
				}
			}
			p.Close()
		}
	}
}
