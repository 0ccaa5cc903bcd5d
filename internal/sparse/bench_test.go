package sparse

import (
	"math/rand"
	"testing"
)

func benchMatrix(b *testing.B) *CSR {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return randomSymCSR(rng, 20000, 25)
}

func BenchmarkSpMVCSR(b *testing.B) {
	m := benchMatrix(b)
	x := Ones(m.Rows)
	y := make([]float64, m.Rows)
	b.SetBytes(m.MemoryBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpMV(m, x, y)
	}
}

func BenchmarkSpMVSELL(b *testing.B) {
	m := benchMatrix(b)
	s := ToSELL(m, 8, 64)
	x := Ones(m.Rows)
	y := make([]float64, m.Rows)
	b.SetBytes(s.MemoryBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SpMV(x, y)
	}
}

func BenchmarkSpMVBSR(b *testing.B) {
	m := benchMatrix(b)
	r := ToBSR(m, 2, 2)
	x := Ones(m.Rows)
	y := make([]float64, m.Rows)
	b.SetBytes(r.MemoryBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SpMV(x, y)
	}
}

func BenchmarkSplit(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Split(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranspose(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Transpose()
	}
}

func BenchmarkCOOToCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 20000
	coo := NewCOO(n, n, n*10)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
		for k := 0; k < 9; k++ {
			coo.Add(i, rng.Intn(n), 0.5)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = coo.ToCSR()
	}
}
