package reorder

import (
	"flag"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"fbmpk/internal/graph"
	"fbmpk/internal/matgen"
	"fbmpk/internal/parallel"
	"fbmpk/internal/sparse"
)

// The symmetric permutation as it was first written — gather each row
// into (column, value) pairs, stable insertion sort by column — kept as
// the oracle the packed-key routine is held to, bit for bit.

func applySymOracle(p Perm, a *sparse.CSR) *sparse.CSR {
	inv := p.Inverse()
	n := a.Rows
	b := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1), ColIdx: make([]int32, a.NNZ()), Val: make([]float64, a.NNZ())}
	m := valueMapOracle(p, a)
	for i := 0; i < n; i++ {
		b.RowPtr[i+1] = b.RowPtr[i] + int64(a.RowNNZ(int(p[i])))
	}
	for k, src := range m {
		b.ColIdx[k] = inv[a.ColIdx[src]]
		b.Val[k] = a.Val[src]
	}
	return b
}

func valueMapOracle(p Perm, a *sparse.CSR) []int64 {
	inv := p.Inverse()
	m := make([]int64, 0, a.NNZ())
	type ent struct {
		c   int32
		src int64
	}
	var buf []ent
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(int(p[i]))
		base := a.RowPtr[int(p[i])]
		buf = buf[:0]
		for k, c := range cols {
			buf = append(buf, ent{inv[c], base + int64(k)})
		}
		for x := 1; x < len(buf); x++ {
			e := buf[x]
			y := x - 1
			for y >= 0 && buf[y].c > e.c {
				buf[y+1] = buf[y]
				y--
			}
			buf[y+1] = e
		}
		for _, e := range buf {
			m = append(m, e.src)
		}
	}
	return m
}

// levelPerm orders rows by BFS level of the symmetrized pattern,
// components stacked, ties by row index — the shape of permutation the
// level-blocked engine applies (internal/core.BFSLevels, which this
// package cannot import): unlike ABMC's it scatters a row's columns.
func levelPerm(tb testing.TB, a *sparse.CSR) Perm {
	tb.Helper()
	g, err := graph.FromCSRPattern(a)
	if err != nil {
		tb.Fatal(err)
	}
	level := make([]int, g.N)
	for i := range level {
		level[i] = -1
	}
	next := 0
	for start := range level {
		if level[start] >= 0 {
			continue
		}
		level[start] = next
		for queue := []int32{int32(start)}; len(queue) > 0; queue = queue[1:] {
			v := queue[0]
			next = max(next, level[v]+1)
			for _, u := range g.Neighbors(int(v)) {
				if level[u] < 0 {
					level[u] = level[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	p := Identity(g.N)
	slices.SortStableFunc(p, func(x, y int32) int { return level[x] - level[y] })
	return p
}

// randomPattern draws a square pattern that need not be symmetric, with
// empty rows and absent diagonals.
func randomPattern(rng *rand.Rand, n, perRow int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, n*perRow)
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			continue
		}
		for k := rng.Intn(perRow + 1); k > 0; k-- {
			coo.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

func sameCSR(x, y *sparse.CSR) bool {
	return x.Rows == y.Rows && x.Cols == y.Cols && slices.Equal(x.RowPtr, y.RowPtr) &&
		slices.Equal(x.ColIdx, y.ColIdx) && slices.Equal(x.Val, y.Val)
}

// checkApplySym holds ApplySymPool (1 and 4 workers) and ValueMap to
// the oracles on one matrix and permutation.
func checkApplySym(t *testing.T, pool *parallel.Pool, a *sparse.CSR, p Perm) {
	t.Helper()
	want := applySymOracle(p, a)
	for _, r := range []sparse.Runner{nil, pool} {
		got, err := p.ApplySymPool(a, r)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(got, want) {
			t.Fatalf("ApplySymPool (pooled=%v) differs from the insertion-sort oracle, n=%d nnz=%d", r != nil, a.Rows, a.NNZ())
		}
	}
	m, err := p.ValueMap(a)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m, valueMapOracle(p, a)) {
		t.Fatalf("ValueMap differs from the oracle, n=%d nnz=%d", a.Rows, a.NNZ())
	}
	inv := p.Inverse()
	for k, src := range m {
		if want.Val[k] != a.Val[src] || want.ColIdx[k] != inv[a.ColIdx[src]] {
			t.Fatalf("slot %d: (col %d, val %v) is not source entry %d mapped", k, want.ColIdx[k], want.Val[k], src)
		}
	}
}

func FuzzApplySym(f *testing.F) {
	for _, s := range [][3]uint64{{1, 0, 3}, {2, 1, 3}, {3, 17, 4}, {4, 60, 9}, {5, 200, 30}} {
		f.Add(s[0], uint16(s[1]), uint8(s[2]))
	}
	pool := parallel.NewPool(4)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, perRow uint8) {
		n := int(n16 % 300)
		rng := rand.New(rand.NewSource(int64(seed)))
		a := randomPattern(rng, n, int(perRow%40))
		if seed%3 == 0 {
			a = randomSym(rng, n, int(perRow%8))
		}
		random := Identity(n)
		rng.Shuffle(n, func(i, j int) { random[i], random[j] = random[j], random[i] })
		abmc, err := ABMC(a, ABMCOptions{NumBlocks: 1 + int(seed%16)})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Perm{Identity(n), random, abmc.Perm, levelPerm(t, a)} {
			checkApplySym(t, pool, a, p)
		}
	})
}

// TestApplySymAllocation is the tripwire against a second full-size
// copy coming back into the permutation: one call may allocate its
// output plus per-row scratch and the O(n) inverse and row pointer,
// nothing that scales with nnz.
func TestApplySymAllocation(t *testing.T) {
	spec, err := matgen.ByName("pwtk")
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Generate(0.02, 1)
	p := levelPerm(t, a)
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, r := range []sparse.Runner{nil, pool} {
		workers := 1
		if r != nil {
			workers = 4
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := p.ApplySymPool(a, r)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		out := uint64(12*b.NNZ()) + uint64(8*(b.Rows+1))
		limit := out + out/50 + uint64(32*a.Rows*workers)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("ApplySymPool (%d workers) allocated %d bytes for a %d-byte output, limit %d", workers, got, out, limit)
		}
	}
}

var buildScale = flag.Float64("build-scale", 0.2, "pwtk scale of BenchmarkApplySym; 8 is the benchmark's out-of-cache bed (1.1 GB)")

// BenchmarkApplySym times the symmetric permutation under the two
// shapes of ordering a plan build applies: ABMC's (blocks move, rows
// inside a block keep their order, so mapped rows are nearly sorted)
// and BFS levels (a row's columns scatter). The level case only
// separates from the ABMC one on a large bed (-build-scale=8): at the
// default scale the stand-in's levels follow the row order.
func BenchmarkApplySym(b *testing.B) {
	spec, err := matgen.ByName("pwtk")
	if err != nil {
		b.Fatal(err)
	}
	a := spec.Generate(*buildScale, 1)
	abmc, err := ABMC(a, ABMCOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    Perm
	}{{"abmc", abmc.Perm}, {"level", levelPerm(b, a)}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(12 * a.NNZ())
			for i := 0; i < b.N; i++ {
				if _, err := c.p.ApplySym(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
