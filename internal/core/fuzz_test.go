package core

import (
	"math/rand"
	"testing"

	"fbmpk/internal/sparse"
)

// FuzzFBMPKEquivalence fuzzes the core correctness property over the
// whole parameter space: random matrix shape and density, power,
// layout, thread count and block count — every plan passes the
// invariant audit, and FBMPK must always reproduce the standard MPK.
func FuzzFBMPKEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint8(1), uint8(4), true)
	f.Add(int64(2), uint8(5), uint8(3), uint8(2), uint8(16), false)
	f.Add(int64(3), uint8(9), uint8(7), uint8(4), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, kRaw, perRowRaw, thrRaw, nbRaw uint8, btb bool) {
		k := 1 + int(kRaw)%9
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		a := randomCSR(rng, n, int(perRowRaw)%6)
		x0 := randVec(rng, n)
		want := refMPK(a, x0, k)

		opt := Options{
			Engine:    EngineForwardBackward,
			BtB:       btb,
			Threads:   1 + int(thrRaw)%4,
			NumBlocks: 1 + int(nbRaw)%24,
		}
		p, err := NewPlan(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := auditBuilt(p, a); err != nil {
			t.Fatalf("n=%d opt=%+v: %v", n, opt, err)
		}
		got, err := p.MPK(x0, k)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.RelMaxDiff(got, want); d > 1e-9 {
			t.Fatalf("n=%d k=%d opt=%+v: diff %g", n, k, opt, d)
		}
	})
}
