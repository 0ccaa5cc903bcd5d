package sparse

import (
	"fmt"
	"math/rand"
	"testing"
)

// ones returns a length-n vector of ones.
func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

func benchMatrix(b *testing.B) *CSR {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return randomSymCSR(rng, 20000, 25)
}

func BenchmarkSpMVCSR(b *testing.B) {
	m := benchMatrix(b)
	x := ones(m.Rows)
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
	x := ones(m.Rows)
	y := make([]float64, m.Rows)
	b.SetBytes(m.MemoryBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SpMV(x, y)
	}
}

func BenchmarkSpMVBSR(b *testing.B) {
	m := benchMatrix(b)
	r := ToBSR(m, 2, 2)
	x := ones(m.Rows)
	y := make([]float64, m.Rows)
	b.SetBytes(m.MemoryBytes())
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

// spmvIndexed is SpMVRange's unrolled loop over column indices of type I:
// absolute columns (rel = 0) or deltas from the row index (rel = 1).
func spmvIndexed[I int16 | int32](rp []int64, idx []I, v, x, y []float64, rel int) {
	for i := range y {
		cr := idx[rp[i]:rp[i+1]]
		vr := v[rp[i]:rp[i+1]]
		vr = vr[:len(cr)]
		base := rel * i
		var s0, s1, s2, s3 float64
		k := 0
		for ; k+4 <= len(cr); k += 4 {
			c := cr[k : k+4 : k+4]
			w := vr[k : k+4 : k+4]
			s0 += w[0] * x[base+int(c[0])]
			s1 += w[1] * x[base+int(c[1])]
			s2 += w[2] * x[base+int(c[2])]
			s3 += w[3] * x[base+int(c[3])]
		}
		for ; k < len(cr); k++ {
			s0 += vr[k] * x[base+int(cr[k])]
		}
		y[i] = (s0 + s1) + (s2 + s3)
	}
}

// BenchmarkSpMVIndexWidth is ROADMAP 1(d)'s "worth measuring": would
// fewer index bytes make the kernels faster on this host? The same banded
// matrix (27 entries a row within 3000 columns of the diagonal, pwtk's
// shape) is multiplied through int32 columns, 12 bytes an entry, and
// through int16 deltas from the row index, 10 bytes an entry and the same
// gathers. One size sits in cache, one (1.3 GB in the int32 form) is five
// times the last-level cache. DESIGN.md section 6 ("What bounds the
// kernels on this host") has the ratio.
func BenchmarkSpMVIndexWidth(b *testing.B) {
	for _, n := range []int{20_000, 4_000_000} {
		const perRow, band = 27, 3000
		rng := rand.New(rand.NewSource(6))
		rp := make([]int64, n+1)
		c32 := make([]int32, n*perRow)
		d16 := make([]int16, n*perRow)
		v := make([]float64, n*perRow)
		for i := 0; i < n; i++ {
			rp[i+1] = int64((i + 1) * perRow)
			for k := i * perRow; k < (i+1)*perRow; k++ {
				c := min(max(i+rng.Intn(2*band+1)-band, 0), n-1)
				c32[k], d16[k], v[k] = int32(c), int16(c-i), rng.NormFloat64()
			}
		}
		x, y := ones(n), make([]float64, n)
		b.Run(fmt.Sprintf("n=%d/int32", n), func(b *testing.B) {
			b.SetBytes(int64(12*len(v) + 24*n))
			for i := 0; i < b.N; i++ {
				spmvIndexed(rp, c32, v, x, y, 0)
			}
		})
		b.Run(fmt.Sprintf("n=%d/int16delta", n), func(b *testing.B) {
			b.SetBytes(int64(10*len(v) + 24*n))
			for i := 0; i < b.N; i++ {
				spmvIndexed(rp, d16, v, x, y, 1)
			}
		})
	}
}
