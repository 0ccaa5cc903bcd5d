package core

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"fbmpk/internal/parallel"
	"fbmpk/internal/sparse"
)

// ones returns a length-n vector of ones.
func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// BenchmarkPlanCalls times the plan calls no other benchmark here
// times, on plans of pwtk at -sweep-scale: k = 5 MPK on the standard engine and on both FB
// layouts, serial and (BtB) on a GOMAXPROCS pool; on that pool one
// batched m = 4 call against four single ones (the multi-RHS
// amortization claim at kernel level); the serial batched pipeline at
// m = 2, 4, 8 in both layouts; one serial SYMGS sweep; and MPKMulti,
// m = 4, k = 6, on a 2-thread standard plan (std/multi4-t2, the block
// path on the plan's team). Each case builds its plan, makes one warm
// call, times it and lets it go, so one plan is resident at a time.
func BenchmarkPlanCalls(b *testing.B) {
	a := sweepBed(b, "pwtk")
	x0 := ones(a.Rows)
	xs := randBlock(rand.New(rand.NewSource(4)), a.Rows, 8)
	x := make([]float64, a.Rows)
	mpk := func(p *Plan) (err error) { _, err = p.MPK(x0, 5); return err }
	pool := DefaultOptions(runtime.GOMAXPROCS(0))
	type call struct {
		name string
		opt  Options
		run  func(p *Plan) error
	}
	calls := []call{
		{"std/k=5", std, mpk},
		{"fb/sep/k=5", fbSerial, mpk},
		{"fb/btb/k=5", DefaultOptions(0), mpk},
		{"fb/btb/pool/k=5", pool, mpk},
		{"fb/btb/pool/batched4", pool, func(p *Plan) (err error) { _, err = p.MPKMulti(xs[:4], 5); return err }},
		{"fb/btb/pool/independent4", pool, func(p *Plan) error {
			for _, x := range xs[:4] {
				if _, err := p.MPK(x, 5); err != nil {
					return err
				}
			}
			return nil
		}},
		{"symgs", fbSerial, func(p *Plan) error { return p.SymGS(x0, x, 1) }},
		{"std/multi4-t2", Options{Engine: EngineStandard, Threads: 2}, func(p *Plan) (err error) {
			_, err = p.MPKMulti([][]float64{x0, x0, x0, x0}, 6)
			return err
		}},
	}
	for _, m := range []int{2, 4, 8} {
		for _, opt := range layouts(fbSerial) {
			calls = append(calls, call{fmt.Sprintf("fb/serial/m=%d/btb=%v", m, opt.BtB), opt,
				func(p *Plan) (err error) { _, err = p.MPKMulti(xs[:m], 5); return err }})
		}
	}
	for _, c := range calls {
		b.Run(c.name, func(b *testing.B) {
			p, err := NewPlan(a, c.opt)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			if err := c.run(p); err != nil { // first touch, as in BenchmarkSweep
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.run(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewPlan measures the plan builds on pwtk at -sweep-scale
// (0.2 is the plan-churn bed): forward-backward serial (the L+D+U split
// alone) and at 2 threads (ABMC block graph + coloring, then the fused
// permute-and-split), and level-blocked at 1 and 2 threads (adjacency
// and BFS, then the bucket permutation), each with its GraphTime and
// PermTime per build, the EngineAuto build at 1 and 2 threads, which
// is the forward-backward build under another spelling and must cost
// what it does, and the serial standard-engine build (std), which only
// validates and partitions. Sub-benchmark names are stable across
// commits; compare two commits by alternating built test binaries.
func BenchmarkNewPlan(b *testing.B) {
	a := sweepBed(b, "pwtk")
	for _, c := range []struct {
		name    string
		eng     Engine
		threads []int
	}{
		{"", EngineForwardBackward, []int{1, 2}},
		{"lb/", EngineLevelBlocked, []int{1, 2}},
		{"auto/", EngineAuto, []int{1, 2}},
		{"std/", EngineStandard, []int{1}},
	} {
		for _, threads := range c.threads {
			b.Run(fmt.Sprintf("%sthreads=%d", c.name, threads), func(b *testing.B) {
				b.SetBytes(12 * a.NNZ())
				opt := DefaultOptions(threads)
				opt.Engine = c.eng
				var graph, perm time.Duration
				for i := 0; i < b.N; i++ {
					p, err := NewPlan(a, opt)
					if err != nil {
						b.Fatal(err)
					}
					st := p.Stats()
					graph, perm = graph+st.GraphTime, perm+st.PermTime
					p.Close()
				}
				b.ReportMetric(float64(graph.Microseconds())/1e3/float64(b.N), "graph-ms")
				b.ReportMetric(float64(perm.Microseconds())/1e3/float64(b.N), "perm-ms")
			})
		}
	}
}

// BenchmarkUpdateValues measures one value swap (Plan.UpdateValues) on
// pwtk at -sweep-scale (0.2 is the plan-churn bed, which ci.sh runs),
// alternating two value sets over shared structure arrays as the
// benchmark's registry leg does: forward-backward at 2 threads (the
// ABMC slot gather) and serial (the row-segment copies), the standard
// engine (one copy of the value array) and the level-blocked engine (the
// flat gather). core-ms is PlanStats.UpdateTime per swap, the time inside
// the update lock.
func BenchmarkUpdateValues(b *testing.B) {
	a := sweepBed(b, "pwtk")
	alt := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: make([]float64, len(a.Val))}
	for i, v := range a.Val {
		alt.Val[i] = 1.25 * v
	}
	for _, c := range []struct {
		name string
		opt  Options
	}{
		{"fb/threads=2", DefaultOptions(2)},
		{"fb/threads=1", DefaultOptions(1)},
		{"std/threads=2", Options{Engine: EngineStandard, Threads: 2}},
		{"lb/threads=2", Options{Engine: EngineLevelBlocked, Threads: 2}},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := NewPlan(a, c.opt)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			if err := p.UpdateValues(alt); err != nil { // builds the slot map
				b.Fatal(err)
			}
			b.SetBytes(12 * a.NNZ())
			warm := p.Stats().UpdateTime
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.UpdateValues([2]*sparse.CSR{a, alt}[i%2]); err != nil {
					b.Fatal(err)
				}
			}
			core := p.Stats().UpdateTime - warm
			b.ReportMetric(float64(core.Microseconds())/1e3/float64(b.N), "core-ms")
		})
	}
}

// BenchmarkMPKBesideUpdates measures what value swaps cost the
// executions they overlap: one k = 6 MPK on a 2-thread forward-backward
// plan on pwtk at -sweep-scale, alone ("quiet") and while another
// goroutine swaps the plan's values every 20 ms ("updating"). The swap
// runs beside the plan's pool, not on it, so where the pool already
// holds every core the two compete for CPUs. p50-ms and p95-ms are
// per-call latencies; swaps is how many updates ran during the timed
// calls.
func BenchmarkMPKBesideUpdates(b *testing.B) {
	a := sweepBed(b, "pwtk")
	alt := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: make([]float64, len(a.Val))}
	for i, v := range a.Val {
		alt.Val[i] = 1.25 * v
	}
	p, err := NewPlan(a, DefaultOptions(2))
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	if err := p.UpdateValues(alt); err != nil { // builds the slot map
		b.Fatal(err)
	}
	x := ones(a.Rows)
	for _, updating := range []bool{false, true} {
		b.Run(map[bool]string{false: "quiet", true: "updating"}[updating], func(b *testing.B) {
			stop, done := make(chan struct{}), make(chan int)
			go func() {
				tick := time.NewTicker(20 * time.Millisecond)
				defer tick.Stop()
				swaps := 0
				for ; ; swaps++ {
					select {
					case <-stop:
						done <- swaps
						return
					case <-tick.C:
					}
					if updating {
						if err := p.UpdateValues([2]*sparse.CSR{a, alt}[swaps%2]); err != nil {
							b.Error(err)
						}
					}
				}
			}()
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range lat {
				start := time.Now()
				if _, err := p.MPK(x, 6); err != nil {
					b.Fatal(err)
				}
				lat[i] = time.Since(start)
			}
			b.StopTimer()
			close(stop)
			swaps := <-done
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2].Microseconds())/1e3, "p50-ms")
			b.ReportMetric(float64(lat[len(lat)*95/100].Microseconds())/1e3, "p95-ms")
			if updating {
				b.ReportMetric(float64(swaps), "swaps")
			}
		})
	}
}

var (
	sweepScale = flag.Float64("sweep-scale", 0.05, "pwtk scale of BenchmarkSweep, BenchmarkNewPlan, BenchmarkUpdateValues, BenchmarkMPKBesideUpdates and BenchmarkPlanCalls; 8 is the benchmark's out-of-cache bed (1.1 GB), 0.2 its plan-churn bed")
	lbBytes    = flag.Int("lb-bytes", 0, "LevelBlockBytes of BenchmarkSweep's level-blocked case (0 = DefaultLevelBlockBytes)")
)

// sweepBeds keeps the generated beds across the re-runs of -count: at
// scale 8 generation is most of a round.
var sweepBeds = map[string]*sparse.CSR{}

func sweepBed(b *testing.B, name string) *sparse.CSR {
	b.Helper()
	key := fmt.Sprint(name, *sweepScale)
	if sweepBeds[key] == nil {
		sweepBeds[key] = suiteCSR(b, name, *sweepScale, 1)
	}
	return sweepBeds[key]
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
// figures DESIGN.md §6 quotes. Last come whole k = 6 MPKs, ROADMAP
// 1(a)'s gauge: the standard engine's six plain sweeps (std6) and the
// forward-backward pipeline (fb6), serial and on a two-worker pool
// (-t2), then the level-blocked engine at -lb-bytes (lb6, with its level
// and block counts; DESIGN.md §13 has the budget sweep). Each builds its
// plan, makes one warm call, times MPKs and closes the plan, so one plan
// is resident at a time, and reports ms/MPK, reads of A per SpMV
// (PlanMetrics.ReadsPerSpMV) and, on a pool, the ABMC colours and the
// wait share of the timed calls, PlanMetrics' WaitTime over WaitTime +
// ComputeTime. Run the two-thread cases with -cpu 2; DESIGN.md §6 has
// the readings.
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
	}{
		{"std6", Options{Engine: EngineStandard}},
		{"std6-t2", Options{Engine: EngineStandard, Threads: 2}},
		{"fb6", DefaultOptions(1)},
		{"fb6-t2", DefaultOptions(2)},
		{"lb6", Options{Engine: EngineLevelBlocked, LevelBlockBytes: *lbBytes}},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := NewPlan(a, c.opt)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			if _, err := p.MPK(xy0[:n], 6); err != nil { // first touch
				b.Fatal(err)
			}
			warm := p.Metrics()
			b.SetBytes(6 * a.MemoryBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.MPK(xy0[:n], 6); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			m, st := p.Metrics(), p.Stats()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(6*len(a.Val)), "ns/nnz")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/MPK")
			b.ReportMetric(m.ReadsPerSpMV, "reads/SpMV")
			if wait, busy := m.WaitTime-warm.WaitTime, m.ComputeTime-warm.ComputeTime; wait+busy > 0 {
				// Phases are clocked on pooled plans only.
				b.ReportMetric(float64(wait)/float64(wait+busy), "wait-share")
			}
			if st.NumColors > 0 {
				b.ReportMetric(float64(st.NumColors), "colours")
			}
			if st.NumLevels > 0 {
				b.ReportMetric(float64(st.NumLevels), "levels")
				b.ReportMetric(float64(st.NumBlocks), "blocks")
			}
		})
	}
}

var buildScale = flag.Float64("build-scale", 0.2, "pwtk scale of BenchmarkBFSLevels; 8 is the benchmark's out-of-cache bed (1.1 GB)")

// BenchmarkBFSLevels times the level schedule's BFS — the stage a
// level-blocked build spends outside the permutation — as MB/s of CSR
// walked, with the allocations beside the matrix, serial and with the
// adjacency on two workers (what a 2-thread plan build runs).
func BenchmarkBFSLevels(b *testing.B) {
	a := suiteCSR(b, "pwtk", *buildScale, 1)
	pool := parallel.NewPool(2)
	defer pool.Close()
	for _, r := range []sparse.Runner{nil, pool} {
		workers := 1
		if r != nil {
			workers = r.Workers()
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(12 * a.NNZ())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bfsLevels(a, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
