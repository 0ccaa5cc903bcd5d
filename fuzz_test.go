package fbmpk

// Differential fuzzing over the public API. Each target derives a
// random sparse matrix, vectors and an engine configuration from the
// fuzz arguments and checks the selected engine against the serial
// standard baseline; FuzzAPIBoundary instead feeds arbitrary bytes
// through the error boundary and requires typed errors, never panics.
//
// All targets take only int64 and []byte arguments so the seed corpus
// files under testdata/fuzz/ stay trivially well-formed; seeds run on
// every plain `go test`, and ci.sh additionally runs each target under
// -fuzz for a short smoke budget.

import (
	"errors"
	"math/rand"
	"testing"
)

// fuzzSetup turns two fuzz integers into a matrix + engine case. n
// spans 0..40 including the degenerate sizes; the matrix kind and the
// engine case come from the derived rng / cfg selector. The matrix is
// the one the case plans and is checked on (RCM-ordered for rcm cases).
func fuzzSetup(t *testing.T, seed, cfgRaw int64) (*Matrix, engineCase, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(41)
	kind := rng.Intn(4)
	a := diffMatrix(rng, n, kind)
	cases := engineCases(1 + rng.Intn(4))
	if cfgRaw < 0 {
		cfgRaw = -cfgRaw
	}
	c := cases[int(cfgRaw%int64(len(cases)))]
	return c.matrix(t, a), c, rng
}

func FuzzDifferentialMPK(f *testing.F) {
	f.Add(int64(1), int64(0), int64(1))
	f.Add(int64(7), int64(6), int64(4))
	f.Add(int64(42), int64(12), int64(8))
	f.Fuzz(func(t *testing.T, seed, cfgRaw, kRaw int64) {
		a, c, rng := fuzzSetup(t, seed, cfgRaw)
		if kRaw < 0 {
			kRaw = -kRaw
		}
		k := 1 + int(kRaw%8)
		x0 := diffVec(rng, a.Rows)
		want, err := StandardMPK(a, x0, k)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlan(a, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		got, err := p.MPK(x0, k)
		if err != nil {
			t.Fatal(err)
		}
		if d := relMaxDiff(t, got, want); d > diffTol {
			t.Fatalf("n=%d k=%d %s: deviation %g", a.Rows, k, c.name, d)
		}
	})
}

func FuzzDifferentialSSpMV(f *testing.F) {
	f.Add(int64(2), int64(3), int64(5))
	f.Add(int64(9), int64(10), int64(1))
	f.Add(int64(13), int64(7), int64(2))
	f.Fuzz(func(t *testing.T, seed, cfgRaw, degRaw int64) {
		a, c, rng := fuzzSetup(t, seed, cfgRaw)
		if degRaw < 0 {
			degRaw = -degRaw
		}
		coeffs := diffVec(rng, 1+int(degRaw%7)) // degree 0..6
		x0 := diffVec(rng, a.Rows)
		want := refSSpMV(t, a, coeffs, x0)
		p, err := NewPlan(a, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		got, err := p.SSpMV(coeffs, x0)
		if err != nil {
			t.Fatal(err)
		}
		if d := relMaxDiff(t, got, want); d > diffTol {
			t.Fatalf("n=%d deg=%d %s: deviation %g", a.Rows, len(coeffs)-1, c.name, d)
		}
	})
}

func FuzzDifferentialMulti(f *testing.F) {
	f.Add(int64(3), int64(5), int64(4))
	f.Add(int64(11), int64(11), int64(1))
	f.Add(int64(17), int64(2), int64(3))
	f.Fuzz(func(t *testing.T, seed, cfgRaw, mRaw int64) {
		a, c, rng := fuzzSetup(t, seed, cfgRaw)
		if mRaw < 0 {
			mRaw = -mRaw
		}
		m := 1 + int(mRaw%5) // 1..5 covers the register-blocked m=4 kernels
		k := 1 + rng.Intn(5)
		coeffs := diffVec(rng, k+1)
		xs := make([][]float64, m)
		for j := range xs {
			xs[j] = diffVec(rng, a.Rows)
		}
		p, err := NewPlan(a, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		gotK, err := p.MPKMulti(xs, k)
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := p.SSpMVMulti(coeffs, xs)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < m; j++ {
			want, err := StandardMPK(a, xs[j], k)
			if err != nil {
				t.Fatal(err)
			}
			if d := relMaxDiff(t, gotK[j], want); d > diffTol {
				t.Fatalf("MPKMulti col %d (n=%d k=%d m=%d %s): deviation %g", j, a.Rows, k, m, c.name, d)
			}
			wantC := refSSpMV(t, a, coeffs, xs[j])
			if d := relMaxDiff(t, gotC[j], wantC); d > diffTol {
				t.Fatalf("SSpMVMulti col %d (n=%d k=%d m=%d %s): deviation %g", j, a.Rows, k, m, c.name, d)
			}
		}
	})
}

func FuzzDifferentialSymGS(f *testing.F) {
	f.Add(int64(4), int64(1), int64(2))
	f.Add(int64(19), int64(3), int64(1))
	f.Add(int64(23), int64(0), int64(3))
	f.Fuzz(func(t *testing.T, seed, kindRaw, sweepsRaw int64) {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(41)
		if kindRaw < 0 {
			kindRaw = -kindRaw
		}
		// kinds 0/2/3 (kind 1 has no diagonal at all: every row skips).
		kind := []int{0, 2, 3}[kindRaw%3]
		if sweepsRaw < 0 {
			sweepsRaw = -sweepsRaw
		}
		sweeps := 1 + int(sweepsRaw%3)
		nb := 1 + rng.Intn(16)
		a := diffMatrix(rng, n, kind)
		b := diffVec(rng, n)
		x0 := diffVec(rng, n)

		serial, err := NewPlan(a, Options{
			Engine: EngineForwardBackward, ForceABMC: true, NumBlocks: nb,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer serial.Close()
		par, err := NewPlan(a, Options{
			Engine: EngineForwardBackward, Threads: 1 + rng.Intn(4) + 1, NumBlocks: nb,
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
			t.Fatalf("n=%d kind=%d nb=%d sweeps=%d: parallel SymGS deviates by %g", n, kind, nb, sweeps, d)
		}
	})
}

// FuzzDifferentialBackend is the forced-backend variant of
// FuzzDifferentialMPK: the extra argument picks a non-default
// execution backend (SELL and BSR forced or, at another chunk or block
// size, replayed as a tuner verdict; or the autotuner itself), overlays
// it on the derived engine case — where only the standard engine builds
// it — and requires the result to match the serial standard baseline.
func FuzzDifferentialBackend(f *testing.F) {
	f.Add(int64(5), int64(0), int64(2), int64(0))
	f.Add(int64(21), int64(4), int64(5), int64(2))
	f.Add(int64(33), int64(9), int64(3), int64(4))
	f.Fuzz(func(t *testing.T, seed, cfgRaw, kRaw, beRaw int64) {
		a, c, rng := fuzzSetup(t, seed, cfgRaw)
		if kRaw < 0 {
			kRaw = -kRaw
		}
		if beRaw < 0 {
			beRaw = -beRaw
		}
		k := 1 + int(kRaw%8)
		variants := backendVariants()
		v := variants[int(beRaw%int64(len(variants)))]
		if v.replay != nil && v.replay.Backend == BackendBSR {
			v.replay.Block = 2 + int(beRaw%3) // any size the tuner can pick
		}

		x0 := diffVec(rng, a.Rows)
		want, err := StandardMPK(a, x0, k)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlan(a, withBackend(c.opt, v)...)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		got, err := p.MPK(x0, k)
		if err != nil {
			t.Fatal(err)
		}
		if d := relMaxDiff(t, got, want); d > diffTol {
			t.Fatalf("n=%d k=%d %s backend=%s: deviation %g", a.Rows, k, c.name, p.Backend(), d)
		}
	})
}

// FuzzDifferentialLevelBlocked is the forced-engine variant for the
// level-blocked schedule: the extra arguments pick the block budget
// (including degenerate byte-sized budgets that force one level per
// block) and the worker count. The standalone LevelBlockedMPK helper
// and the plan path must both match the serial standard baseline, and
// the parallel plan must be bitwise identical to the serial one — the
// determinism contract of the even row-split schedule.
func FuzzDifferentialLevelBlocked(f *testing.F) {
	f.Add(int64(6), int64(3), int64(0), int64(1))
	f.Add(int64(29), int64(7), int64(512), int64(4))
	f.Add(int64(51), int64(1), int64(-9), int64(2))
	f.Fuzz(func(t *testing.T, seed, kRaw, bbRaw, thRaw int64) {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(41)
		kind := rng.Intn(4)
		a := diffMatrix(rng, n, kind)
		if kRaw < 0 {
			kRaw = -kRaw
		}
		if thRaw < 0 {
			thRaw = -thRaw
		}
		k := 1 + int(kRaw%8)
		threads := 2 + int(thRaw%3)
		bb := int(bbRaw % 100_000) // negative selects the default budget

		x0 := diffVec(rng, n)
		want, err := StandardMPK(a, x0, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LevelBlockedMPK(a, x0, k, bb)
		if err != nil {
			t.Fatal(err)
		}
		if d := relMaxDiff(t, got, want); d > diffTol {
			t.Fatalf("n=%d k=%d bb=%d standalone: deviation %g", n, k, bb, d)
		}

		ps, err := NewPlan(a, Options{Engine: EngineLevelBlocked, LevelBlockBytes: bb, SelfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		pp, err := NewPlan(a, Options{Engine: EngineLevelBlocked, LevelBlockBytes: bb, Threads: threads, SelfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		defer pp.Close()
		gotS, err := ps.MPK(x0, k)
		if err != nil {
			t.Fatal(err)
		}
		gotP, err := pp.MPK(x0, k)
		if err != nil {
			t.Fatal(err)
		}
		if d := relMaxDiff(t, gotS, want); d > diffTol {
			t.Fatalf("n=%d k=%d bb=%d serial plan: deviation %g", n, k, bb, d)
		}
		for i := range gotS {
			if gotS[i] != gotP[i] {
				t.Fatalf("n=%d k=%d bb=%d threads=%d: parallel result not bitwise identical at %d: %g vs %g",
					n, k, bb, threads, i, gotP[i], gotS[i])
			}
		}
	})
}

// FuzzAPIBoundary hammers the error boundary with arbitrary bytes
// interpreted as a raw CSR and call arguments. Every call must either
// succeed or return an error wrapping an exported sentinel; a panic
// (slice bounds, nil deref, runaway allocation) fails the fuzzer.
func FuzzAPIBoundary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 0, 1, 2, 1, 1, 0, 1, 100, 200})
	f.Add([]byte{3, 3, 0, 1, 1, 3, 0, 1, 2, 9, 9, 9, 5, 5, 5, 5, 5})
	f.Add([]byte{255, 1, 7, 7, 7, 7, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		rows := next() % 64
		cols := next() % 64
		nrp := next() % 70
		rp := make([]int64, nrp)
		for i := range rp {
			rp[i] = int64(next()) - 16
		}
		nnz := next() % 96
		ci := make([]int32, nnz)
		vals := make([]float64, nnz)
		for i := range ci {
			ci[i] = int32(next()) - 16
			vals[i] = float64(next()-128) / 16
		}
		a := &Matrix{Rows: rows, Cols: cols, RowPtr: rp, ColIdx: ci, Val: vals}

		opt := Options{
			Engine:    Engine(next() % 2),
			BtB:       next()%2 == 1,
			Threads:   next() % 5,
			NumBlocks: next() % 9,
			ForceABMC: next()%2 == 1,
			SelfCheck: true,
		}
		wantErr := func(err error) {
			t.Helper()
			if err == nil {
				return
			}
			for _, sentinel := range []error{
				ErrInvalidMatrix, ErrNotSquare, ErrDimension, ErrBadPower,
				ErrBadCoeffs, ErrEmptyBlock, ErrBadSweeps, ErrNoSplit,
			} {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("error without a typed sentinel: %v", err)
		}

		x := make([]float64, next()%70)
		for i := range x {
			x[i] = 1
		}
		k := next()%8 - 2

		p, err := NewPlan(a, opt)
		wantErr(err)
		if err != nil {
			// The one-shot helpers route through the same validation.
			_, err = MPK(a, x, k, opt)
			wantErr(err)
			return
		}
		defer p.Close()
		_, err = p.MPK(x, k)
		wantErr(err)
		_, err = p.SSpMV(x, x)
		wantErr(err)
		_, err = p.MPKMulti([][]float64{x}, k)
		wantErr(err)
		_, err = p.MPKAll(x, k)
		wantErr(err)
		err = p.SymGS(x, x, k)
		wantErr(err)
	})
}
