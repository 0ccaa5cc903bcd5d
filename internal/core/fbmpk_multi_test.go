package core

import (
	"math/rand"
	"testing"

	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

func randBlock(rng *rand.Rand, n, m int) [][]float64 {
	xs := make([][]float64, m)
	for j := range xs {
		xs[j] = randVec(rng, n)
	}
	return xs
}

// The batched invariant the whole feature rests on: FBMPKSerialMulti
// must reproduce m independent FBMPKSerial runs bit-for-bit-close, for
// both layouts, odd and even k, and every stripe width including the
// specialized m = 4 path.
func TestFBMPKSerialMultiMatchesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, m := range []int{1, 2, 3, 4, 5, 8} {
		for trial := 0; trial < 3; trial++ {
			n := 2 + rng.Intn(50)
			a := randomCSR(rng, n, 4)
			tri, err := sparse.Split(a)
			if err != nil {
				t.Fatal(err)
			}
			xs := randBlock(rng, n, m)
			for _, k := range []int{1, 2, 3, 6, 7} {
				for _, btb := range []bool{false, true} {
					got, _, err := FBMPKSerialMulti(tri, xs, k, btb, nil)
					if err != nil {
						t.Fatal(err)
					}
					for j := 0; j < m; j++ {
						want, _, err := FBMPKSerial(tri, xs[j], k, btb, nil, nil)
						if err != nil {
							t.Fatal(err)
						}
						if d := sparse.RelMaxDiff(got[j], want); d > 1e-12 {
							t.Fatalf("m=%d k=%d btb=%v vector %d: diff %g", m, k, btb, j, d)
						}
					}
				}
			}
		}
	}
}

func TestFBMPKSerialMultiCombo(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range []int{2, 4, 5} {
		n := 3 + rng.Intn(40)
		a := randomCSR(rng, n, 3)
		tri, err := sparse.Split(a)
		if err != nil {
			t.Fatal(err)
		}
		xs := randBlock(rng, n, m)
		for _, k := range []int{1, 3, 4} {
			coeffs := make([]float64, k+1)
			for i := range coeffs {
				coeffs[i] = rng.NormFloat64()
			}
			for _, btb := range []bool{false, true} {
				gotX, gotC, err := FBMPKSerialMulti(tri, xs, k, btb, coeffs)
				if err != nil {
					t.Fatal(err)
				}
				if gotC == nil {
					t.Fatalf("m=%d k=%d btb=%v: nil combos with coeffs", m, k, btb)
				}
				for j := 0; j < m; j++ {
					wantX, wantC, err := FBMPKSerial(tri, xs[j], k, btb, coeffs, nil)
					if err != nil {
						t.Fatal(err)
					}
					if d := sparse.RelMaxDiff(gotX[j], wantX); d > 1e-12 {
						t.Fatalf("m=%d k=%d btb=%v vector %d xk: diff %g", m, k, btb, j, d)
					}
					if d := sparse.RelMaxDiff(gotC[j], wantC); d > 1e-12 {
						t.Fatalf("m=%d k=%d btb=%v vector %d combo: diff %g", m, k, btb, j, d)
					}
				}
			}
		}
	}
}

func TestFBMPKSerialMultiErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randomCSR(rng, 8, 2)
	tri, _ := sparse.Split(a)
	xs := randBlock(rng, 8, 2)
	if _, _, err := FBMPKSerialMulti(tri, nil, 2, true, nil); err == nil {
		t.Error("accepted empty block")
	}
	if _, _, err := FBMPKSerialMulti(tri, [][]float64{xs[0], xs[1][:5]}, 2, true, nil); err == nil {
		t.Error("accepted ragged block")
	}
	if _, _, err := FBMPKSerialMulti(tri, xs, 0, true, nil); err == nil {
		t.Error("accepted k=0")
	}
	if _, _, err := FBMPKSerialMulti(tri, xs, 3, true, []float64{1, 2}); err == nil {
		t.Error("accepted wrong-length coeffs")
	}
}

func TestFBParallelMultiMatchesSerialMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, workers := range []int{1, 2, 4} {
		pool := parallel.NewPool(workers)
		for _, m := range []int{1, 2, 4, 5} {
			n := 30 + rng.Intn(90)
			a := randomSymCSR(rng, n, 3)
			ord, pm, err := reorder.ABMCReorder(a, reorder.ABMCOptions{NumBlocks: 16})
			if err != nil {
				t.Fatal(err)
			}
			tri, err := sparse.Split(pm)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := NewFBParallel(tri, ord, pool)
			if err != nil {
				t.Fatal(err)
			}
			fbm := NewFBParallelMulti(fb)
			xs := randBlock(rng, n, m)
			for _, k := range []int{1, 2, 5} {
				coeffs := make([]float64, k+1)
				for i := range coeffs {
					coeffs[i] = rng.NormFloat64()
				}
				for _, btb := range []bool{false, true} {
					gotX, gotC, err := fbm.Run(xs, k, btb, coeffs)
					if err != nil {
						t.Fatal(err)
					}
					wantX, wantC, err := FBMPKSerialMulti(tri, xs, k, btb, coeffs)
					if err != nil {
						t.Fatal(err)
					}
					for j := 0; j < m; j++ {
						if d := sparse.RelMaxDiff(gotX[j], wantX[j]); d > 1e-12 {
							t.Fatalf("w=%d m=%d k=%d btb=%v vector %d xk: diff %g", workers, m, k, btb, j, d)
						}
						if d := sparse.RelMaxDiff(gotC[j], wantC[j]); d > 1e-12 {
							t.Fatalf("w=%d m=%d k=%d btb=%v vector %d combo: diff %g", workers, m, k, btb, j, d)
						}
					}
				}
			}
		}
		pool.Close()
	}
}

func TestPlanMPKMultiAllConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 70
	a := randomSymCSR(rng, n, 3)
	xs := randBlock(rng, n, 4)
	const k = 4
	// Reference: m independent standard MPK runs on the raw matrix.
	want := make([][]float64, len(xs))
	for j, x := range xs {
		want[j] = refMPK(a, x, k)
	}
	for _, opt := range []Options{
		{Engine: EngineStandard},
		{Engine: EngineStandard, Threads: 3},
		{Engine: EngineForwardBackward},
		{Engine: EngineForwardBackward, BtB: true},
		{Engine: EngineForwardBackward, BtB: true, Threads: 3},
		{Engine: EngineForwardBackward, Threads: 3},
		{Engine: EngineForwardBackward, BtB: true, ForceABMC: true},
	} {
		p, err := NewPlan(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.MPKMulti(xs, k)
		if err != nil {
			p.Close()
			t.Fatal(err)
		}
		for j := range xs {
			if d := sparse.RelMaxDiff(got[j], want[j]); d > 1e-11 {
				t.Fatalf("opt=%+v vector %d: diff %g", opt, j, d)
			}
		}
		// SSpMVMulti against per-vector SSpMV on the same plan.
		coeffs := []float64{0.5, -1.25, 2, 0.75, -0.5}
		gotC, err := p.SSpMVMulti(coeffs, xs)
		if err != nil {
			p.Close()
			t.Fatal(err)
		}
		for j := range xs {
			wantC, err := p.SSpMV(coeffs, xs[j])
			if err != nil {
				p.Close()
				t.Fatal(err)
			}
			if d := sparse.RelMaxDiff(gotC[j], wantC); d > 1e-11 {
				t.Fatalf("opt=%+v vector %d combo: diff %g", opt, j, d)
			}
		}
		p.Close()
	}
}

// TestFBParallelMultiRace exercises the batched parallel executor with
// 8 workers — more than the host's cores — so the race detector (run
// with -race) sees every barrier crossing and stripe-write interleaving
// of the color phases, including the oversubscribed yield path of the
// spin barrier.
func TestFBParallelMultiRace(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 400
	a := randomSymCSR(rng, n, 4)
	ord, pm, err := reorder.ABMCReorder(a, reorder.ABMCOptions{NumBlocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := sparse.Split(pm)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPool(8)
	defer pool.Close()
	fb, err := NewFBParallel(tri, ord, pool)
	if err != nil {
		t.Fatal(err)
	}
	fbm := NewFBParallelMulti(fb)
	xs := randBlock(rng, n, 4)
	coeffs := []float64{1, -0.5, 0.25, -0.125, 0.0625, 0.03125}
	for _, btb := range []bool{false, true} {
		gotX, gotC, err := fbm.Run(xs, 5, btb, coeffs)
		if err != nil {
			t.Fatal(err)
		}
		wantX, wantC, err := FBMPKSerialMulti(tri, xs, 5, btb, coeffs)
		if err != nil {
			t.Fatal(err)
		}
		for j := range xs {
			if d := sparse.RelMaxDiff(gotX[j], wantX[j]); d > 1e-12 {
				t.Fatalf("btb=%v vector %d xk: diff %g", btb, j, d)
			}
			if d := sparse.RelMaxDiff(gotC[j], wantC[j]); d > 1e-12 {
				t.Fatalf("btb=%v vector %d combo: diff %g", btb, j, d)
			}
		}
	}
}
