package fbmpk

// In-cache testing.B micro-benchmarks of the public entry points that
// no paper table covers. The paper's tables and figures are regenerated
// by cmd/fbmpkbench (DESIGN.md §4); out-of-cache, verified measurement
// of the system is `bash benchmark/run.sh`.

import (
	"runtime"
	"testing"

	"fbmpk/internal/sparse"
)

const benchScale = 0.004

func benchMatrix(b *testing.B, name string) *Matrix {
	b.Helper()
	m, err := GenerateSuiteMatrix(name, benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchVec(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + float64(i%7)*0.125
	}
	return x
}

// BenchmarkFBMulti is the batched multi-RHS headline: m=4 batched FBMPK
// versus 4 independent FBMPK runs on the largest suite matrix
// (Flan_1565, the biggest nnz in Table II). The bytes_per_spmv metric
// is the bandwidth model: matrix bytes read per SpMV application —
// (k+1)/(2k) of the matrix per vector for single-vector FBMPK, divided
// by m when batched.
func BenchmarkFBMulti(b *testing.B) {
	const k, m = 5, 4
	mtx := benchMatrix(b, "Flan_1565")
	xs := make([][]float64, m)
	for j := range xs {
		xs[j] = benchVec(mtx.Rows)
		xs[j][j] += 1 // decorrelate the right-hand sides
	}
	p, err := NewPlan(mtx, DefaultOptions(runtime.GOMAXPROCS(0)))
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	readsPerSpMV := float64(mtx.MemoryBytes()) * float64(k+1) / (2 * float64(k))
	b.Run("batched_m4", func(b *testing.B) {
		b.SetBytes(mtx.MemoryBytes() * int64(k) * int64(m))
		b.ReportMetric(readsPerSpMV/float64(m), "bytes_per_spmv")
		for i := 0; i < b.N; i++ {
			if _, err := p.MPKMulti(xs, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent_x4", func(b *testing.B) {
		b.SetBytes(mtx.MemoryBytes() * int64(k) * int64(m))
		b.ReportMetric(readsPerSpMV, "bytes_per_spmv")
		for i := 0; i < b.N; i++ {
			for j := range xs {
				if _, err := p.MPK(xs[j], k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSpMVKernel is the microbenchmark for the shared SpMV kernel
// both engines build on (the paper's "heavily optimized" baseline).
func BenchmarkSpMVKernel(b *testing.B) {
	m := benchMatrix(b, "pwtk")
	x := benchVec(m.Rows)
	y := make([]float64, m.Rows)
	b.SetBytes(m.MemoryBytes())
	for i := 0; i < b.N; i++ {
		sparse.SpMV(m, x, y)
	}
}

// BenchmarkSSpMVCombo measures the fused y = sum c_i A^i x pipeline
// against evaluating it with the standard engine.
func BenchmarkSSpMVCombo(b *testing.B) {
	m := benchMatrix(b, "Serena")
	x0 := benchVec(m.Rows)
	coeffs := []float64{1, 0.5, 0.25, 0.125, 0.0625, 0.03125}
	b.Run("standard", func(b *testing.B) {
		p, err := NewPlan(m, Options{Engine: EngineStandard})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.SSpMV(coeffs, x0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fbmpk", func(b *testing.B) {
		p, err := NewPlan(m, DefaultOptions(1))
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.SSpMV(coeffs, x0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
