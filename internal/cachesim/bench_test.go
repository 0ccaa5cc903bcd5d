package cachesim

import (
	"testing"

	"fbmpk/internal/matgen"
	"fbmpk/internal/sparse"
)

func simBenchMatrix(b *testing.B) *sparse.CSR {
	b.Helper()
	spec, err := matgen.ByName("pwtk")
	if err != nil {
		b.Fatal(err)
	}
	return spec.Generate(0.01, 1)
}

func BenchmarkCacheAccessThroughput(b *testing.B) {
	c := tinyCache(b, 1<<20, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i)*64, 8)
	}
}

func BenchmarkTraceStandardMPK(b *testing.B) {
	m := simBenchMatrix(b)
	cfg := ScaledConfig(m.MemoryBytes(), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := tinyCache(b, cfg.SizeBytes, cfg.Assoc)
		TraceStandardMPK(c, m, 5)
	}
}

func BenchmarkTraceFBMPK(b *testing.B) {
	m := simBenchMatrix(b)
	tri, err := sparse.Split(m)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ScaledConfig(m.MemoryBytes(), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := tinyCache(b, cfg.SizeBytes, cfg.Assoc)
		TraceFBMPK(c, tri, 5, true)
	}
}
