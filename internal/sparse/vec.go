package sparse

import "math"

// Dense-vector helpers shared by the kernels, solvers and tests. These
// are deliberately simple loops: the Go compiler keeps them in
// registers, and every one of them is memory-bound anyway.

// AXPY computes y += alpha*x.
func AXPY(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// NormInf returns the max-magnitude entry of x.
func NormInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		a := math.Abs(v)
		if a > m {
			m = a
		}
	}
	return m
}

// MaxAbsDiff returns max_i |x[i]-y[i]|; it panics if lengths differ.
func MaxAbsDiff(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("sparse: MaxAbsDiff length mismatch")
	}
	m := 0.0
	for i := range x {
		d := math.Abs(x[i] - y[i])
		if d > m {
			m = d
		}
	}
	return m
}

// RelMaxDiff returns max_i |x[i]-y[i]| / max(1, ||y||_inf): an absolute
// difference normalized by the reference magnitude, which is the
// tolerance metric the correctness tests use for iterated kernels whose
// values grow with k.
func RelMaxDiff(x, y []float64) float64 {
	scale := NormInf(y)
	if scale < 1 {
		scale = 1
	}
	return MaxAbsDiff(x, y) / scale
}

// CopyVec returns a copy of x.
func CopyVec(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}
