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
// the oracle the run-based routines (ApplySymPool, ValueMap, and
// SplitSym through sparse.Split of it) are held to, bit for bit.

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

func sameSplit(x, y *sparse.Triangular) bool {
	return x.N == y.N && sameCSR(x.L, y.L) && sameCSR(x.U, y.U) && slices.Equal(x.D, y.D)
}

// checkApplySym holds ApplySymPool, SplitSym (each serial and on every
// pool) and ValueMap to the oracles on one matrix and permutation:
// the permuted matrix bit for bit, its sparse.Split bit for bit.
func checkApplySym(t *testing.T, pools []*parallel.Pool, a *sparse.CSR, p Perm) {
	t.Helper()
	want := applySymOracle(p, a)
	wantTri, err := sparse.Split(want)
	if err != nil {
		t.Fatal(err)
	}
	runners := []sparse.Runner{nil}
	for _, pool := range pools {
		runners = append(runners, pool)
	}
	for _, r := range runners {
		workers := 1
		if r != nil {
			workers = r.Workers()
		}
		got, err := p.ApplySymPool(a, r)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(got, want) {
			t.Fatalf("ApplySymPool (%d workers) differs from the insertion-sort oracle, n=%d nnz=%d", workers, a.Rows, a.NNZ())
		}
		tri, rowPtr, err := p.SplitSym(a, r)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSplit(tri, wantTri) || !slices.Equal(rowPtr, want.RowPtr) {
			t.Fatalf("SplitSym (%d workers) differs from Split of the oracle, n=%d nnz=%d", workers, a.Rows, a.NNZ())
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

// testPools are the worker counts the bitwise suites run beside the
// serial path: the host's two, and one that does not divide evenly.
func testPools(tb testing.TB) []*parallel.Pool {
	pools := []*parallel.Pool{parallel.NewPool(2), parallel.NewPool(3)}
	tb.Cleanup(func() {
		for _, pool := range pools {
			pool.Close()
		}
	})
	return pools
}

// blockShuffle moves whole blocks of width rows, every third block
// staying where it is: the shape of an ABMC ordering with its hazard
// made common — blocks with the same shift and others landing between
// them, so sorted runs overlap and rows take the per-entry fallback.
func blockShuffle(rng *rand.Rand, n, width int) Perm {
	nb := (n + width - 1) / width
	order := make([]int, 0, nb)
	var moving []int
	for b := 0; b < nb; b++ {
		order = append(order, b)
		// Only full-width blocks trade places, so the others keep their
		// offsets.
		if b%3 != 0 && (b+1)*width <= n {
			moving = append(moving, b)
		}
	}
	rng.Shuffle(len(moving), func(i, j int) {
		order[moving[i]], order[moving[j]] = order[moving[j]], order[moving[i]]
	})
	p := make(Perm, 0, n)
	for _, b := range order {
		for i := b * width; i < min((b+1)*width, n); i++ {
			p = append(p, int32(i))
		}
	}
	return p
}

// TestPermutedRowsKinds runs every shape of permutation the run
// decomposition distinguishes — one run a row (identity), runs in
// reverse (reversal), a few block segments (ABMC), scattered columns
// (BFS levels, a random shuffle, an even/odd de-interleave) and block
// segments that overlap once sorted (blockShuffle) — over patterns with
// empty rows, rows without a diagonal and the degenerate orders 0 and 1.
func TestPermutedRowsKinds(t *testing.T) {
	pools := testPools(t)
	rng := rand.New(rand.NewSource(26))
	for _, a := range []*sparse.CSR{
		randomPattern(rng, 0, 3), randomPattern(rng, 1, 3), randomSym(rng, 1, 0),
		randomPattern(rng, 97, 9), randomPattern(rng, 400, 30), randomSym(rng, 333, 5), tridiag(64),
	} {
		n := a.Rows
		abmc, err := ABMC(a, ABMCOptions{NumBlocks: 12})
		if err != nil {
			t.Fatal(err)
		}
		reversal, shuffled, deinterleave := Identity(n), Identity(n), make(Perm, 0, n)
		slices.Reverse(reversal)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for parity := 0; parity < 2; parity++ {
			for i := parity; i < n; i += 2 {
				deinterleave = append(deinterleave, int32(i))
			}
		}
		for name, p := range map[string]Perm{
			"identity": Identity(n), "reversal": reversal, "abmc": abmc.Perm, "level": levelPerm(t, a),
			"shuffle": shuffled, "deinterleave": deinterleave, "blocks": blockShuffle(rng, n, 4),
		} {
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			t.Run(name, func(t *testing.T) { checkApplySym(t, pools, a, p) })
		}
	}
}

// TestPermutedRowsOverlapFallback pins the one case sorted run heads do
// not settle: rows 4 and 11 trade places, so in row 0 the eight columns
// that stay are one run over new columns 0..9 and column 11 lands on 4,
// inside it. The row must come out entry by entry, in order.
func TestPermutedRowsOverlapFallback(t *testing.T) {
	coo := sparse.NewCOO(12, 12, 9)
	for _, c := range []int{0, 1, 2, 3, 6, 7, 8, 9, 11} {
		coo.Add(0, c, float64(c+1))
	}
	a := coo.ToCSR()
	p := Identity(12)
	p[4], p[11] = 11, 4
	var newCols []int32
	p.permutedRows(a, p.Inverse(), nil, func(i int, _ int64, heads []uint64, starts []int32) {
		if i != 0 {
			return
		}
		if starts != nil {
			t.Errorf("row 0 came out as %d runs, want entry by entry", len(heads))
		}
		for _, h := range heads {
			newCols = append(newCols, int32(h>>32))
		}
	})
	if !slices.Equal(newCols, []int32{0, 1, 2, 3, 4, 6, 7, 8, 9}) {
		t.Errorf("row 0 new columns %v, want 0..4, 6..9", newCols)
	}
	checkApplySym(t, nil, a, p)
}

func FuzzApplySym(f *testing.F) {
	for _, s := range [][3]uint64{{1, 0, 3}, {2, 1, 3}, {3, 17, 4}, {4, 60, 9}, {5, 200, 30}} {
		f.Add(s[0], uint16(s[1]), uint8(s[2]))
	}
	pools := testPools(f)
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
			checkApplySym(t, pools, a, p)
		}
	})
}

// FuzzPermutedRows aims at the run decomposition itself: a random
// pattern under a seeded shuffle of row blocks whose width the fuzzer
// picks, from single rows (every entry its own run) to a few wide
// blocks (long runs, overlaps when same-shift blocks straddle a moved
// one).
func FuzzPermutedRows(f *testing.F) {
	for _, s := range [][4]uint64{{1, 0, 3, 1}, {2, 1, 3, 2}, {3, 40, 12, 4}, {4, 150, 30, 7}, {5, 290, 6, 64}} {
		f.Add(s[0], uint16(s[1]), uint8(s[2]), uint8(s[3]))
	}
	pools := testPools(f)
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, perRow, width uint8) {
		n := int(n16 % 300)
		rng := rand.New(rand.NewSource(int64(seed)))
		a := randomPattern(rng, n, int(perRow%40))
		checkApplySym(t, pools, a, blockShuffle(rng, n, 1+int(width)))
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
