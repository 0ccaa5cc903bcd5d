package reorder

import (
	"math/rand"
	"testing"

	"fbmpk/internal/sparse"
)

func reorderBenchMatrix(b *testing.B) *sparse.CSR {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return randomSym(rng, 20000, 12)
}

func BenchmarkABMC(b *testing.B) {
	a := reorderBenchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ABMC(a, ABMCOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkABMCReorderFull(b *testing.B) {
	a := reorderBenchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ABMCReorder(a, ABMCOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRCM(b *testing.B) {
	a := reorderBenchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RCM(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLevelsLower(b *testing.B) {
	a := reorderBenchMatrix(b)
	tri, err := sparse.Split(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LevelsLower(tri.L); err != nil {
			b.Fatal(err)
		}
	}
}
