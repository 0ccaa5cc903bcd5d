package core

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"fbmpk/internal/matgen"
	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

func coreBenchMatrix(b *testing.B) *sparse.CSR {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return randomSymCSR(rng, 20000, 20)
}

func BenchmarkStandardMPKSerial(b *testing.B) {
	a := coreBenchMatrix(b)
	x0 := sparse.Ones(a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StandardMPK(a, x0, 5, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFBMPKSerialSeparate(b *testing.B) {
	a := coreBenchMatrix(b)
	tri, err := sparse.Split(a)
	if err != nil {
		b.Fatal(err)
	}
	x0 := sparse.Ones(a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FBMPKSerial(tri, x0, 5, false, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFBMPKSerialBtB(b *testing.B) {
	a := coreBenchMatrix(b)
	tri, err := sparse.Split(a)
	if err != nil {
		b.Fatal(err)
	}
	x0 := sparse.Ones(a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FBMPKSerial(tri, x0, 5, true, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFBMPKParallel(b *testing.B) {
	a := coreBenchMatrix(b)
	ord, pm, err := reorder.ABMCReorder(a, reorder.ABMCOptions{})
	if err != nil {
		b.Fatal(err)
	}
	tri, err := sparse.Split(pm)
	if err != nil {
		b.Fatal(err)
	}
	pool := parallel.NewPool(0)
	defer pool.Close()
	fb, err := NewFBParallel(tri, ord, pool)
	if err != nil {
		b.Fatal(err)
	}
	x0 := sparse.Ones(a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fb.Run(x0, 5, true, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFBParallelMulti compares one batched m=4 run against 4
// independent runs of the same executor — the kernel-level version of
// the multi-RHS amortization claim (the matrix is swept once for all
// four vectors instead of four times).
func BenchmarkFBParallelMulti(b *testing.B) {
	const m, k = 4, 5
	a := coreBenchMatrix(b)
	ord, pm, err := reorder.ABMCReorder(a, reorder.ABMCOptions{})
	if err != nil {
		b.Fatal(err)
	}
	tri, err := sparse.Split(pm)
	if err != nil {
		b.Fatal(err)
	}
	pool := parallel.NewPool(0)
	defer pool.Close()
	fb, err := NewFBParallel(tri, ord, pool)
	if err != nil {
		b.Fatal(err)
	}
	fbm := NewFBParallelMulti(fb)
	rng := rand.New(rand.NewSource(3))
	xs := make([][]float64, m)
	for j := range xs {
		xs[j] = randVec(rng, a.Rows)
	}
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := fbm.Run(xs, k, true, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range xs {
				if _, _, err := fb.Run(xs[j], k, true, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkFBMPKSerialMulti is the serial layout/width sweep of the
// batched pipeline.
func BenchmarkFBMPKSerialMulti(b *testing.B) {
	const k = 5
	a := coreBenchMatrix(b)
	tri, err := sparse.Split(a)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for _, m := range []int{2, 4, 8} {
		xs := make([][]float64, m)
		for j := range xs {
			xs[j] = randVec(rng, a.Rows)
		}
		for _, btb := range []bool{false, true} {
			name := "sep"
			if btb {
				name = "btb"
			}
			b.Run(fmt.Sprintf("m=%d/%s", m, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := FBMPKSerialMulti(tri, xs, k, btb, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSymGSSerial(b *testing.B) {
	a := coreBenchMatrix(b)
	tri, err := sparse.Split(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := sparse.Ones(a.Rows)
	x := make([]float64, a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SymGSSerial(tri, rhs, x, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanBuild(b *testing.B) {
	a := coreBenchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewPlan(a, DefaultOptions(2))
		if err != nil {
			b.Fatal(err)
		}
		p.Close()
	}
}

// BenchmarkNewPlan measures the forward-backward plan build on pwtk at
// -sweep-scale: serial (the L+D+U split alone) and at 2 threads (ABMC
// block graph + coloring, then the fused permute-and-split) — the host
// has two cores. Sub-benchmark names are stable across commits; compare
// two commits by alternating built test binaries.
func BenchmarkNewPlan(b *testing.B) {
	a := sweepBed(b, "pwtk")
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.SetBytes(12 * a.NNZ())
			for i := 0; i < b.N; i++ {
				p, err := NewPlan(a, DefaultOptions(threads))
				if err != nil {
					b.Fatal(err)
				}
				p.Close()
			}
		})
	}
}

var (
	sweepScale  = flag.Float64("sweep-scale", 0.05, "scale of the matrix of BenchmarkSweep, BenchmarkNewPlan and BenchmarkStandardBackends; pwtk at 8 is the benchmark's out-of-cache bed (1.1 GB), at 0.2 its plan-churn bed")
	sweepMatrix = flag.String("sweep-matrix", "pwtk", "suite matrix of BenchmarkStandardBackends")
	lbBytes     = flag.Int("lb-bytes", 0, "LevelBlockBytes of BenchmarkSweep's level-blocked case (0 = DefaultLevelBlockBytes)")
)

// sweepBeds keeps the generated beds across the re-runs of -count: at
// scale 8 generation is most of a round.
var sweepBeds = map[string]*sparse.CSR{}

func sweepBed(b *testing.B, name string) *sparse.CSR {
	b.Helper()
	key := fmt.Sprint(name, *sweepScale)
	if sweepBeds[key] == nil {
		spec, err := matgen.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		sweepBeds[key] = spec.Generate(*sweepScale, 1)
	}
	return sweepBeds[key]
}

// BenchmarkStandardBackends is the gauge of ROADMAP 2(b): standard-engine
// MPK, k = 6, one thread, under each storage format and under the tuner,
// on -sweep-matrix at -sweep-scale. Each case builds its plan, times it
// and lets it go, so no two formats are resident at once; the auto case
// logs the format the tuner picked. -count repeats a case back to back:
// for interleaved rounds run the built test binary once per round.
// DESIGN.md §10 has the beds and the numbers.
func BenchmarkStandardBackends(b *testing.B) {
	a := sweepBed(b, *sweepMatrix)
	x := sparse.Ones(a.Rows)
	for _, kind := range []BackendKind{BackendCSR, BackendSELL, BackendBSR, BackendAuto} {
		b.Run(kind.String(), func(b *testing.B) {
			p, err := NewPlan(a, Options{Engine: EngineStandard, Backend: kind})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			if kind == BackendAuto {
				b.Logf("%s x%g: the tuner picked %s", *sweepMatrix, *sweepScale, p.Backend())
			}
			// One call outside the clock: it first-touches the plan's
			// workspace and the heap the results recycle from, which on
			// this VM (a fresh page costs 2 to 17 us) is a tenth of a
			// sweep on the vector-bound beds.
			if _, err := p.MPK(x, 6); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(6 * a.MemoryBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.MPK(x, 6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweep answers "bandwidth-bound or not" without the repo
// benchmark: one pipelined forward sweep, one pipelined backward sweep
// and one tail (last) backward sweep of the scalar BtB pipeline beside
// sparse.SpMV over the same matrix, then the head and the same three
// sweeps of the m = 4 BtB pipeline. ns/nnz is time per matrix entry
// streamed (ns/nnz/rhs divides by the vectors an entry serves); MB/s
// counts the sweep's compulsory traffic, 12 bytes per entry plus what
// each row moves besides (RowPtr, d, tmp and the vector lines, reads and
// write-backs), which is where an FB sweep, with half the entries per
// row of an SpMV, differs — and an m = 4 sweep, whose row is one whole
// 64-byte xy line, more so. Run with -sweep-scale=8 for the out-of-cache
// figures DESIGN.md §6 quotes. Last come two whole k = 6 MPKs, ROADMAP
// 2(a)'s gauge: the standard engine's six plain sweeps (std6) and the
// level-blocked engine at -lb-bytes (lb6, with its level and block
// counts) — DESIGN.md §14 has the budget sweep.
func BenchmarkSweep(b *testing.B) {
	a := sweepBed(b, "pwtk")
	tri, err := sparse.Split(a)
	if err != nil {
		b.Fatal(err)
	}
	n := a.Rows
	rng := rand.New(rand.NewSource(5))
	xy0, tmp0 := randVec(rng, 8*n), randVec(rng, 4*n)
	st, st4 := new(fbState), new(fbState)
	st.shape(n, 1, true)
	st4.shape(n, 4, true)
	st.tri, st4.tri = tri, tri
	run := func(name string, st *fbState, nnz, rowBytes int, sweep func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(12*int64(nnz) + int64(rowBytes)*int64(n))
			for i := 0; i < b.N; i++ {
				// Same operands every iteration: repeated sweeps would
				// grow the iterates to Inf.
				b.StopTimer()
				copy(st.xy, xy0)
				copy(st.tmp, tmp0)
				b.StartTimer()
				sweep()
			}
			perNnz := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(nnz)
			b.ReportMetric(perNnz, "ns/nnz")
			if st.m > 1 {
				b.ReportMetric(perNnz/float64(st.m), "ns/nnz/rhs")
			}
		})
	}
	nnzL, nnzU := len(tri.L.Val), len(tri.U.Val)
	// Per row: RowPtr 8, x 8, y 8.
	run("spmv", st, len(a.Val), 24, func() { sparse.SpMV(a, xy0[:n], st.tmp) })
	// RowPtr 8, d 8, tmp 8 + 8, the row's xy line 16 + 16.
	run("forward", st, nnzL+n, 64, func() { st.forward(0, n, false) })
	run("backward", st, nnzU, 56, func() { st.backward(0, n, false) })
	// The tail leaves tmp unwritten.
	run("tail", st, nnzU, 48, func() { st.backward(0, n, true) })
	// m = 4. Head: RowPtr 8, the packed x0 row 32, tmp 32.
	run("head4", st4, nnzU, 72, func() { sparse.SpMMRange(tri.U, xy0[:4*n], st4.tmp, 4, 0, n) })
	// RowPtr 8, d 8, tmp 32 + 32, the row's xy line 64 + 64.
	run("forward4", st4, nnzL+n, 208, func() { st4.forward(0, n, false) })
	run("backward4", st4, nnzU, 200, func() { st4.backward(0, n, false) })
	run("tail4", st4, nnzU, 168, func() { st4.backward(0, n, true) })
	for _, c := range []struct {
		name string
		opt  Options
	}{{"std6", Options{Engine: EngineStandard}}, {"lb6", Options{Engine: EngineLevelBlocked, LevelBlockBytes: *lbBytes}}} {
		b.Run(c.name, func(b *testing.B) {
			p, err := NewPlan(a, c.opt)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			if _, err := p.MPK(xy0[:n], 6); err != nil { // first touch, as in BenchmarkStandardBackends
				b.Fatal(err)
			}
			b.SetBytes(6 * a.MemoryBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.MPK(xy0[:n], 6); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(6*len(a.Val)), "ns/nnz")
			if st := p.Stats(); st.NumLevels > 0 {
				b.ReportMetric(float64(st.NumLevels), "levels")
				b.ReportMetric(float64(st.NumBlocks), "blocks")
			}
		})
	}
}

var buildScale = flag.Float64("build-scale", 0.2, "pwtk scale of BenchmarkBFSLevels; 8 is the benchmark's out-of-cache bed (1.1 GB)")

// BenchmarkBFSLevels times the level schedule's BFS — the stage a
// level-blocked build spends outside the permutation — as MB/s of CSR
// walked, with -benchmem showing what it allocates beside the matrix.
func BenchmarkBFSLevels(b *testing.B) {
	spec, err := matgen.ByName("pwtk")
	if err != nil {
		b.Fatal(err)
	}
	a := spec.Generate(*buildScale, 1)
	b.SetBytes(12 * a.NNZ())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BFSLevels(a); err != nil {
			b.Fatal(err)
		}
	}
}
