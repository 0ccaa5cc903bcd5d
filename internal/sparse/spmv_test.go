package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// denseSpMV is the reference kernel the fast paths are checked against.
func denseSpMV(d [][]float64, x []float64) []float64 {
	y := make([]float64, len(d))
	for i := range d {
		s := 0.0
		for j := range d[i] {
			s += d[i][j] * x[j]
		}
		y[i] = s
	}
	return y
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestSpMVMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(60)
		a := randomCSR(rng, n, rng.Intn(8))
		x := randVec(rng, n)
		want := denseSpMV(a.ToDense(), x)
		y := make([]float64, n)
		SpMV(a, x, y)
		if d := MaxAbsDiff(y, want); d > 1e-10 {
			t.Fatalf("trial %d: SpMV differs from dense by %g", trial, d)
		}
	}
}

// Property: SpMV is linear: A(ax + bz) = a*Ax + b*Az.
func TestSpMVLinearity(t *testing.T) {
	f := func(seed int64, ai, bi int8) bool {
		alpha, beta := float64(ai), float64(bi)
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		m := randomCSR(rng, n, 3)
		x, z := randVec(rng, n), randVec(rng, n)
		xz := make([]float64, n)
		for i := range xz {
			xz[i] = alpha*x[i] + beta*z[i]
		}
		y1, y2, y3 := make([]float64, n), make([]float64, n), make([]float64, n)
		SpMV(m, xz, y1)
		SpMV(m, x, y2)
		SpMV(m, z, y3)
		for i := range y1 {
			want := alpha*y2[i] + beta*y3[i]
			if diff := y1[i] - want; diff > 1e-8 || diff < -1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSpMVRangeCoversAllPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 37
	a := randomCSR(rng, n, 4)
	x := randVec(rng, n)
	want := make([]float64, n)
	SpMV(a, x, want)
	for parts := 1; parts <= 5; parts++ {
		y := make([]float64, n)
		for p := 0; p < parts; p++ {
			lo := p * n / parts
			hi := (p + 1) * n / parts
			SpMVRange(a, x, y, lo, hi)
		}
		if d := MaxAbsDiff(y, want); d != 0 {
			t.Fatalf("parts=%d: partitioned SpMV differs by %g", parts, d)
		}
	}
}

func TestSpMVDimensionPanics(t *testing.T) {
	a := paperExample()
	defer func() {
		if recover() == nil {
			t.Error("SpMV with short x did not panic")
		}
	}()
	SpMV(a, make([]float64, 2), make([]float64, 4))
}

func TestSpMVEmptyRowsAndMatrix(t *testing.T) {
	// All-empty matrix: y must come back zero even if pre-filled.
	m := &CSR{Rows: 3, Cols: 3, RowPtr: []int64{0, 0, 0, 0}}
	y := []float64{9, 9, 9}
	SpMV(m, []float64{1, 2, 3}, y)
	for i, v := range y {
		if v != 0 {
			t.Errorf("y[%d] = %g, want 0", i, v)
		}
	}
}

func TestSpMVWideRowUnrollTail(t *testing.T) {
	// Rows of width 1..9 exercise every unroll remainder.
	rng := rand.New(rand.NewSource(13))
	for width := 1; width <= 9; width++ {
		n := 16
		coo := NewCOO(n, n, n*width)
		for i := 0; i < n; i++ {
			for k := 0; k < width; k++ {
				coo.Add(i, (i+k)%n, rng.NormFloat64())
			}
		}
		a := coo.ToCSR()
		x := randVec(rng, n)
		want := denseSpMV(a.ToDense(), x)
		y := make([]float64, n)
		SpMV(a, x, y)
		if d := MaxAbsDiff(y, want); d > 1e-10 {
			t.Fatalf("width %d: unrolled SpMV differs by %g", width, d)
		}
	}
}
