package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSELLMatchesCSRQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		a := randomCSR(rng, n, rng.Intn(7))
		x := randVec(rng, n)
		want := make([]float64, n)
		SpMV(a, x, want)
		for _, cfg := range [][2]int{{1, 1}, {4, 1}, {4, 8}, {8, 32}, {16, 16}} {
			s := ToSELL(a, cfg[0], cfg[1])
			got := make([]float64, n)
			s.SpMV(x, got)
			if MaxAbsDiff(got, want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSELLSortingReducesPadding(t *testing.T) {
	// Rows of strongly varying width: sigma-sorting should not increase
	// padding and typically shrinks it.
	rng := rand.New(rand.NewSource(21))
	n := 256
	coo := NewCOO(n, n, 8*n)
	for i := 0; i < n; i++ {
		w := 1 + (i % 13)
		for k := 0; k < w; k++ {
			coo.Add(i, rng.Intn(n), 1)
		}
	}
	a := coo.ToCSR()
	unsorted := ToSELL(a, 8, 1)
	sorted := ToSELL(a, 8, 64)
	if sorted.PaddingRatio() > unsorted.PaddingRatio()+1e-9 {
		t.Errorf("sigma sorting increased padding: %g > %g",
			sorted.PaddingRatio(), unsorted.PaddingRatio())
	}
}

func TestSELLPermIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomCSR(rng, 100, 4)
	s := ToSELL(a, 8, 32)
	seen := make([]bool, a.Rows)
	for _, p := range s.Perm {
		if seen[p] {
			t.Fatalf("row %d appears twice in SELL perm", p)
		}
		seen[p] = true
	}
}

func TestFormatMemoryAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomCSR(rng, 64, 4)
	if ToSELL(a, 8, 8).MemoryBytes() <= 0 {
		t.Error("SELL MemoryBytes not positive")
	}
}

func TestVecHelpers(t *testing.T) {
	x := []float64{3, -4}
	if got := Norm2(x); got != 5 {
		t.Errorf("Norm2 = %g, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %g, want 0", got)
	}
	if got := NormInf(x); got != 4 {
		t.Errorf("NormInf = %g, want 4", got)
	}
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	y := []float64{1, 1}
	AXPY(2, x, y)
	if y[0] != 7 || y[1] != -7 {
		t.Errorf("AXPY = %v, want [7 -7]", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != -3.5 {
		t.Errorf("Scale = %v", y)
	}
}

func TestRelMaxDiffScales(t *testing.T) {
	big := []float64{1e9, 2e9}
	bigPerturbed := []float64{1e9 + 1, 2e9}
	if RelMaxDiff(bigPerturbed, big) > 1e-8 {
		t.Error("RelMaxDiff did not normalize by magnitude")
	}
	if RelMaxDiff([]float64{0.5}, []float64{0}) != 0.5 {
		t.Error("RelMaxDiff floor at 1 failed")
	}
}
