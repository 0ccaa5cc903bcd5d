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

// Scale computes x *= alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	var s0, s1 float64
	n := len(x)
	i := 0
	for ; i+2 <= n; i += 2 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
	}
	if i < n {
		s0 += x[i] * y[i]
	}
	return s0 + s1
}

// Norm2 returns the Euclidean norm of x, guarding against overflow by
// scaling with the max magnitude.
func Norm2(x []float64) float64 {
	maxAbs := 0.0
	for _, v := range x {
		a := math.Abs(v)
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		r := v / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
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

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Ones returns a length-n vector of ones.
func Ones(n int) []float64 {
	x := make([]float64, n)
	Fill(x, 1)
	return x
}

// CopyVec returns a copy of x.
func CopyVec(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}
