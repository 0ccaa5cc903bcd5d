package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpMMMatchesPerVectorSpMV(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for _, nv := range []int{1, 2, 3, 4, 7} {
		for trial := 0; trial < 5; trial++ {
			n := 1 + rng.Intn(50)
			a := randomCSR(rng, n, rng.Intn(6))
			cols := make([][]float64, nv)
			for c := range cols {
				cols[c] = randVec(rng, n)
			}
			x := PackVectors(cols)
			y := make([]float64, n*nv)
			SpMMRange(a, x, y, nv, 0, n)
			got := UnpackVectors(y, n, nv)
			for c := range cols {
				want := make([]float64, n)
				SpMV(a, cols[c], want)
				if d := MaxAbsDiff(got[c], want); d > 1e-12 {
					t.Fatalf("nv=%d vector %d differs by %g", nv, c, d)
				}
			}
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(seed int64, nvRaw uint8) bool {
		nv := 1 + int(nvRaw)%6
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		cols := make([][]float64, nv)
		for c := range cols {
			cols[c] = randVec(rng, n)
		}
		back := UnpackVectors(PackVectors(cols), n, nv)
		for c := range cols {
			if MaxAbsDiff(cols[c], back[c]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSpMMPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"ragged": func() { PackVectors([][]float64{{1, 2}, {3}}) },
		"unpack": func() { UnpackVectors(make([]float64, 5), 2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPackVectorsEmpty(t *testing.T) {
	if out := PackVectors(nil); out != nil {
		t.Errorf("PackVectors(nil) = %v", out)
	}
}
