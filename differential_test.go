package fbmpk

// Differential engine tests: every engine combination the library
// offers — standard/forward-backward, serial/parallel, separate/BtB
// layout, natural/ABMC ordering, the latter also over an RCM-ordered
// input — must agree with the serial standard baseline (Algorithm 1) to
// within floating-point reassociation noise. These deterministic sweeps
// mirror the fuzz targets in fuzz_test.go so CI exercises the same
// property without -fuzz.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fbmpk/internal/reorder"
)

const diffTol = 1e-10

// engineCase names one point of the engine configuration space. An rcm
// case plans on the reverse Cuthill-McKee ordering of the test matrix,
// which the harness applies itself (see matrix): ABMC then blocks an
// order that scatters the original neighborhoods.
type engineCase struct {
	name string
	opt  Options
	rcm  bool
}

// matrix returns the matrix case c plans and is checked on: a, or
// P·a·Pᵀ for the RCM ordering P of a.
func (c engineCase) matrix(t testing.TB, a *Matrix) *Matrix {
	t.Helper()
	if !c.rcm {
		return a
	}
	p, err := reorder.RCM(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.ApplySym(a)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// caseInput is a test matrix with the cases that run on it.
type caseInput struct {
	a     *Matrix
	cases []engineCase
}

// caseInputs splits cases by the matrix they run on: the natural-order
// cases on a, the rcm cases on a in RCM order. A sweep computes its
// references once per input and runs that input's cases against them.
func caseInputs(t testing.TB, a *Matrix, cases []engineCase) []caseInput {
	in := []caseInput{{a: a}, {}}
	for _, c := range cases {
		i := 0
		if c.rcm {
			if i = 1; in[i].a == nil {
				in[i].a = c.matrix(t, a)
			}
		}
		in[i].cases = append(in[i].cases, c)
	}
	return in
}

// engineCases enumerates the engine combinations under differential
// test. Every case also runs the internal/check invariant audit at
// plan construction (SelfCheck).
func engineCases(threads int) []engineCase {
	cases := []engineCase{
		{name: "std/serial", opt: Options{Engine: EngineStandard}},
		{name: "std/parallel", opt: Options{Engine: EngineStandard, Threads: threads}},
		{name: "std/serial/abmc", opt: Options{Engine: EngineStandard, ForceABMC: true, NumBlocks: 8}},
		{name: "std/parallel/abmc", opt: Options{Engine: EngineStandard, Threads: threads, ForceABMC: true, NumBlocks: 8}},
		{name: "std/serial/rcm+abmc", opt: Options{Engine: EngineStandard, ForceABMC: true, NumBlocks: 8}, rcm: true},
		{name: "fb/serial/sep", opt: Options{Engine: EngineForwardBackward}},
		{name: "fb/serial/btb", opt: Options{Engine: EngineForwardBackward, BtB: true}},
		{name: "fb/serial/sep/abmc", opt: Options{Engine: EngineForwardBackward, ForceABMC: true, NumBlocks: 8}},
		{name: "fb/serial/btb/abmc", opt: Options{Engine: EngineForwardBackward, BtB: true, ForceABMC: true, NumBlocks: 8}},
		{name: "fb/serial/btb/rcm+abmc", opt: Options{Engine: EngineForwardBackward, BtB: true, ForceABMC: true, NumBlocks: 8}, rcm: true},
		{name: "fb/parallel/sep", opt: Options{Engine: EngineForwardBackward, Threads: threads, NumBlocks: 8}},
		{name: "fb/parallel/btb", opt: Options{Engine: EngineForwardBackward, BtB: true, Threads: threads, NumBlocks: 8}},
		{name: "fb/parallel/btb/rcm+abmc", opt: Options{Engine: EngineForwardBackward, BtB: true, Threads: threads, NumBlocks: 8}, rcm: true},
		{name: "lb/serial", opt: Options{Engine: EngineLevelBlocked}},
		{name: "lb/parallel", opt: Options{Engine: EngineLevelBlocked, Threads: threads}},
		{name: "lb/serial/tiny-blocks", opt: Options{Engine: EngineLevelBlocked, LevelBlockBytes: 256}},
		{name: "auto/serial", opt: Options{Engine: EngineAuto, BtB: true}},
		{name: "auto/parallel", opt: Options{Engine: EngineAuto, BtB: true, Threads: threads, NumBlocks: 8}},
	}
	for i := range cases {
		cases[i].opt.SelfCheck = true
	}
	return cases
}

// diffMatrix builds one of four structurally distinct test matrices:
// dense-diagonal with random off-diagonals, diagonal-free, explicit
// zero diagonal with empty rows, and symmetric tridiagonal. Values are
// kept small so iterates neither overflow nor underflow for k <= 8.
func diffMatrix(rng *rand.Rand, n, kind int) *Matrix {
	// Arguments are non-negative by construction, so the error is dead.
	tr, _ := NewTriplets(n, n, 4*n+1)
	for i := 0; i < n; i++ {
		switch kind % 4 {
		case 0:
			tr.Add(i, i, 1+rng.Float64())
			for e := 0; e < 3; e++ {
				tr.Add(i, rng.Intn(n), (rng.Float64()-0.5)/4)
			}
		case 1:
			if n > 1 {
				tr.Add(i, (i+1+rng.Intn(n-1))%n, (rng.Float64()-0.5)/2)
			}
		case 2:
			if i%3 == 0 {
				tr.Add(i, i, 0)
			}
			if i+1 < n && i%2 == 0 {
				tr.Add(i, i+1, (rng.Float64()-0.5)/2)
			}
		case 3:
			tr.Add(i, i, 2)
			if i+1 < n {
				tr.Add(i, i+1, -0.5)
				tr.Add(i+1, i, -0.5)
			}
		}
	}
	return tr.ToCSR()
}

func diffVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// refSSpMV evaluates sum coeffs[i] A^i x through repeated applications
// of the serial standard baseline.
func refSSpMV(t *testing.T, a *Matrix, coeffs, x []float64) []float64 {
	t.Helper()
	y := make([]float64, len(x))
	for i := range x {
		y[i] = coeffs[0] * x[i]
	}
	cur := x
	for p := 1; p < len(coeffs); p++ {
		next, err := StandardMPK(a, cur, 1)
		if err != nil {
			t.Fatalf("reference SpMV: %v", err)
		}
		for i := range y {
			y[i] += coeffs[p] * next[i]
		}
		cur = next
	}
	return y
}

// relMaxDiff is max|got-want| / max|want| (absolute when want is all
// zero), failing the test on length mismatch.
func relMaxDiff(t *testing.T, got, want []float64) float64 {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: got %d, want %d", len(got), len(want))
	}
	var maxd, maxw float64
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > maxd {
			maxd = d
		}
		if w := math.Abs(want[i]); w > maxw {
			maxw = w
		}
	}
	if maxw == 0 {
		return maxd
	}
	return maxd / maxw
}

// TestDifferentialEngines checks MPK (both sweep parities), SSpMV,
// MPKAll, and SSpMVComplex of every engine combination against the
// serial standard baseline across the structural matrix kinds.
func TestDifferentialEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := engineCases(4)
	for _, n := range []int{0, 1, 2, 3, 17, 40} {
		for kind := 0; kind < 4; kind++ {
			a := diffMatrix(rng, n, kind)
			x0 := diffVec(rng, n)
			coeffs := diffVec(rng, 5) // degree 4
			ccoeffs := make([]complex128, 5)
			for i := range ccoeffs {
				ccoeffs[i] = complex(coeffs[i], coeffs[4-i])
			}
			for _, in := range caseInputs(t, a, cases) {
				differentialEngines(t, fmt.Sprintf("n%d/kind%d", n, kind), in, x0, coeffs, ccoeffs)
			}
		}
	}
}

// differentialEngines runs one input of TestDifferentialEngines: the
// references on in.a, then every case of in against them.
func differentialEngines(t *testing.T, prefix string, in caseInput, x0, coeffs []float64, ccoeffs []complex128) {
	a, n := in.a, in.a.Rows
	want4, err := StandardMPK(a, x0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want5, err := StandardMPK(a, x0, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantCombo := refSSpMV(t, a, coeffs, x0)
	wantAll := make([][]float64, 5)
	wantAll[0] = x0
	for p := 1; p <= 4; p++ {
		wantAll[p], err = StandardMPK(a, x0, p)
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range in.cases {
		t.Run(prefix+"/"+c.name, func(t *testing.T) {
			p, err := NewPlan(a, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			got, err := p.MPK(x0, 4)
			if err != nil {
				t.Fatal(err)
			}
			if d := relMaxDiff(t, got, want4); d > diffTol {
				t.Errorf("MPK k=4: deviation %g", d)
			}
			got, err = p.MPK(x0, 5)
			if err != nil {
				t.Fatal(err)
			}
			if d := relMaxDiff(t, got, want5); d > diffTol {
				t.Errorf("MPK k=5: deviation %g", d)
			}

			combo, err := p.SSpMV(coeffs, x0)
			if err != nil {
				t.Fatal(err)
			}
			if d := relMaxDiff(t, combo, wantCombo); d > diffTol {
				t.Errorf("SSpMV: deviation %g", d)
			}

			all, err := p.MPKAll(x0, 4)
			if err != nil {
				t.Fatal(err)
			}
			for pw := 0; pw <= 4; pw++ {
				if d := relMaxDiff(t, all[pw], wantAll[pw]); d > diffTol {
					t.Errorf("MPKAll power %d: deviation %g", pw, d)
				}
			}

			re, im, err := p.SSpMVComplex(ccoeffs, x0)
			if err != nil {
				t.Fatal(err)
			}
			wantRe := make([]float64, n)
			wantIm := make([]float64, n)
			for pw := 0; pw <= 4; pw++ {
				for i := 0; i < n; i++ {
					wantRe[i] += real(ccoeffs[pw]) * wantAll[pw][i]
					wantIm[i] += imag(ccoeffs[pw]) * wantAll[pw][i]
				}
			}
			if d := relMaxDiff(t, re, wantRe); d > diffTol {
				t.Errorf("SSpMVComplex re: deviation %g", d)
			}
			if d := relMaxDiff(t, im, wantIm); d > diffTol {
				t.Errorf("SSpMVComplex im: deviation %g", d)
			}
		})
	}
}

// TestDifferentialMulti checks the batched (multi-RHS) paths of every
// engine combination column-by-column against the serial baseline,
// including the register-blocked m=4 kernels.
func TestDifferentialMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := engineCases(4)
	for _, n := range []int{0, 1, 3, 17, 33} {
		for kind := 0; kind < 4; kind++ {
			inputs := caseInputs(t, diffMatrix(rng, n, kind), cases)
			coeffs := diffVec(rng, 4) // degree 3
			for _, m := range []int{1, 3, 4} {
				xs := make([][]float64, m)
				for j := range xs {
					xs[j] = diffVec(rng, n)
				}
				for _, in := range inputs {
					differentialMulti(t, fmt.Sprintf("n%d/kind%d/m%d", n, kind, m), in, coeffs, xs)
				}
			}
		}
	}
}

// differentialMulti runs one input of TestDifferentialMulti: the
// references on in.a, then every case of in against them.
func differentialMulti(t *testing.T, prefix string, in caseInput, coeffs []float64, xs [][]float64) {
	a, m := in.a, len(xs)
	wantK := make([][]float64, m)
	wantC := make([][]float64, m)
	for j := range xs {
		var err error
		wantK[j], err = StandardMPK(a, xs[j], 3)
		if err != nil {
			t.Fatal(err)
		}
		wantC[j] = refSSpMV(t, a, coeffs, xs[j])
	}
	for _, c := range in.cases {
		t.Run(prefix+"/"+c.name, func(t *testing.T) {
			p, err := NewPlan(a, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			gotK, err := p.MPKMulti(xs, 3)
			if err != nil {
				t.Fatal(err)
			}
			gotC, err := p.SSpMVMulti(coeffs, xs)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < m; j++ {
				if d := relMaxDiff(t, gotK[j], wantK[j]); d > diffTol {
					t.Errorf("MPKMulti col %d: deviation %g", j, d)
				}
				if d := relMaxDiff(t, gotC[j], wantC[j]); d > diffTol {
					t.Errorf("SSpMVMulti col %d: deviation %g", j, d)
				}
			}
		})
	}
}

// TestDifferentialSymGS checks that the multi-color parallel smoother
// reproduces serial Gauss-Seidel on the same ABMC-permuted matrix:
// with identical NumBlocks the parallel plan and a serial ForceABMC
// plan build the same ordering, and same-color rows do not couple, so
// the sweeps perform identical arithmetic.
func TestDifferentialSymGS(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 3, 17, 40} {
		// kind 0 and 3 have usable diagonals; kind 2 exercises the
		// zero-diagonal row-skip path.
		for _, kind := range []int{0, 2, 3} {
			a := diffMatrix(rng, n, kind)
			b := diffVec(rng, n)
			x0 := diffVec(rng, n)
			for _, sweeps := range []int{1, 3} {
				t.Run(fmt.Sprintf("n%d/kind%d/sweeps%d", n, kind, sweeps), func(t *testing.T) {
					serial, err := NewPlan(a, Options{
						Engine: EngineForwardBackward, ForceABMC: true,
						NumBlocks: 8, SelfCheck: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer serial.Close()
					par, err := NewPlan(a, Options{
						Engine: EngineForwardBackward, Threads: 4,
						NumBlocks: 8, SelfCheck: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer par.Close()

					xs := append([]float64(nil), x0...)
					xp := append([]float64(nil), x0...)
					if err := serial.SymGS(b, xs, sweeps); err != nil {
						t.Fatal(err)
					}
					if err := par.SymGS(b, xp, sweeps); err != nil {
						t.Fatal(err)
					}
					if d := relMaxDiff(t, xp, xs); d > diffTol {
						t.Errorf("parallel SymGS deviates from serial by %g", d)
					}
				})
			}
		}
	}
}
