package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"fbmpk/internal/graph"
	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// levelBeds are the shapes the bucket pass can get wrong: nonsymmetric
// patterns with and without a diagonal and with empty rows (levels come
// from the symmetrized adjacency, so a row's entries are a subset of its
// neighbors), n = 0 and 1, stacked components and diagonal-only (levels
// restart per component), a nonsymmetric suite stand-in, and a bed of
// 282 levels, deep enough that most rows have neighbors in both adjacent
// levels. The conformance table holds every engine to every bed; these
// hold the pass itself to the sorting permutation.
func levelBeds(t testing.TB) map[string]*sparse.CSR {
	t.Helper()
	deep := suiteCSR(t, "G3_circuit", 0.018, 5)
	if lp, _ := BFSLevels(deep); lp.NumLevels() != 282 {
		t.Fatalf("deep bed has %d levels, want 282", lp.NumLevels())
	}
	beds := map[string]*sparse.CSR{"282-levels": deep, "cage14": suiteCSR(t, "cage14", 0.0005, 5)}
	for _, n := range []int{0, 1, 17, 40} {
		beds[fmt.Sprintf("scatter%d", n)] = scatter(int64(n), n, true)
		beds[fmt.Sprintf("scatter%d/no-diagonal", n)] = scatter(int64(n)+1, n, false)
	}
	beds["diagonal"], beds["disconnected"], beds["path"] = chains(40, 1, 0, -0.5), chains(2, 20, 0, -0.5), chains(1, 5, 0, -0.5)
	return beds
}

// scatter is an n×n pattern with up to three random off-diagonal
// entries a row, so not symmetric, every third row empty, and a
// diagonal on the others when diag is set.
func scatter(seed int64, n int, diag bool) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n, n, 4*n)
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			continue
		}
		if diag {
			coo.Add(i, i, 1+rng.Float64())
		}
		for e := 0; e < 3; e++ {
			coo.Add(i, rng.Intn(n), rng.Float64()-0.5)
		}
	}
	return coo.ToCSR()
}

// levelRunners are the worker counts the level build is held to: serial,
// the host's two, and four.
func levelRunners(t testing.TB) []sparse.Runner {
	pools := []*parallel.Pool{parallel.NewPool(2), parallel.NewPool(4)}
	t.Cleanup(func() {
		for _, p := range pools {
			p.Close()
		}
	})
	return []sparse.Runner{nil, pools[0], pools[1]}
}

// TestLevelPermuteMatchesApplySym holds the bucket permutation to the
// sorting one array for array — the level-ordered matrix to
// Perm.ApplySym's — and the partition built over a worker-parallel
// adjacency to the serial BFSLevels.
func TestLevelPermuteMatchesApplySym(t *testing.T) {
	for name, a := range levelBeds(t) {
		want, err := BFSLevels(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantB, err := reorder.Perm(want.Rows).ApplySym(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range levelRunners(t) {
			workers := 1
			if r != nil {
				workers = r.Workers()
			}
			ls, err := newLevelSchedule(a, DefaultLevelBlockBytes, r)
			if err != nil {
				t.Fatalf("%s/%d workers: %v", name, workers, err)
			}
			if !slices.Equal(ls.lp.Level, want.Level) || !slices.Equal(ls.lp.LevelPtr, want.LevelPtr) || !slices.Equal(ls.lp.Rows, want.Rows) {
				t.Fatalf("%s/%d workers: level partition differs from the serial one", name, workers)
			}
			b, err := ls.permute(a, r)
			if err != nil {
				t.Fatalf("%s/%d workers: %v", name, workers, err)
			}
			if b.Rows != wantB.Rows || b.Cols != wantB.Cols || !slices.Equal(b.RowPtr, wantB.RowPtr) ||
				!slices.Equal(b.ColIdx, wantB.ColIdx) || !slices.Equal(b.Val, wantB.Val) {
				t.Errorf("%s/%d workers: level-ordered matrix differs from Perm.ApplySym (n=%d nnz=%d)", name, workers, a.Rows, a.NNZ())
			}
		}
	}
}

// TestLevelPermuteRejectsBrokenLevels: the bucket index is the build's
// check that every entry joins levels at most one apart. A level array
// broken by hand must fail the pass with ErrInvalidMatrix at every
// worker count, never index with the bad bucket: on a directed path
// (row i holds column i and i+1, or i-1; level i), one column two levels
// above its row or two below it and nothing else wrong; on a grid, one
// row moved to a level far out of range either way.
func TestLevelPermuteRejectsBrokenLevels(t *testing.T) {
	up, down := sparse.NewCOO(9, 9, 17), sparse.NewCOO(9, 9, 17)
	for i := 0; i < 9; i++ {
		up.Add(i, i, 1)
		down.Add(i, i, 1)
		if i+1 < 9 {
			up.Add(i, i+1, 1)
			down.Add(i+1, i, 1)
		}
	}
	grid := suiteCSR(t, "G3_circuit", 0.004, 11)
	for _, r := range levelRunners(t) {
		for _, c := range []struct {
			name   string
			a      *sparse.CSR
			mangle func(lp *LevelPartition)
		}{
			{"one column two up", up.ToCSR(), func(lp *LevelPartition) { lp.Level[8]++ }},
			{"one column two down", down.ToCSR(), func(lp *LevelPartition) { lp.Level[0]-- }},
			{"far out", grid, func(lp *LevelPartition) { lp.Level[lp.Rows[len(lp.Rows)/2]] += 1 << 30 }},
			{"far below", grid, func(lp *LevelPartition) { lp.Level[lp.Rows[len(lp.Rows)/2]] -= 1 << 30 }},
		} {
			ls, err := newLevelSchedule(c.a, DefaultLevelBlockBytes, r)
			if err != nil {
				t.Fatal(err)
			}
			c.mangle(ls.lp)
			if _, err := ls.permute(c.a, r); !errors.Is(err, ErrInvalidMatrix) {
				t.Errorf("%s: got %v, want ErrInvalidMatrix", c.name, err)
			}
		}
	}
}

// TestLevelBuildAllocation pins what a serial level build leaves behind,
// from both sides: the one-worker adjacency (its neighbor array and the
// pattern transpose, 8 bytes an entry) and the whole one-thread
// level-blocked plan (that adjacency plus the level-ordered matrix, 20
// bytes an entry) allocate those bytes and O(n) words beside them, no
// more and no less: on the benchmark's one-thread DRAM bed the timed
// operations run on the garbage a build leaves, so less of it is a
// change too (DESIGN.md section 13, the withheld BFS).
func TestLevelBuildAllocation(t *testing.T) {
	a := suiteCSR(t, "pwtk", 0.05, 1)
	nnz, n := uint64(a.NNZ()), uint64(a.Rows)
	for _, c := range []struct {
		name              string
		perEntry, perRows uint64 // bytes an entry, at most bytes a row beside them
		build             func() error
	}{
		{"adjacency", 8, 32, func() error { _, err := graph.FromCSRPattern(a, nil); return err }},
		{"level-blocked plan", 20, 96, func() error {
			p, err := NewPlan(a, Options{Engine: EngineLevelBlocked})
			if err == nil {
				p.Close()
			}
			return err
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.build()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := c.perEntry*nnz, c.perEntry*nnz+c.perRows*n
		if got := after.TotalAlloc - before.TotalAlloc; got < lo || got > hi {
			t.Errorf("serial %s allocated %d bytes on n=%d nnz=%d, want %d..%d", c.name, got, n, nnz, lo, hi)
		}
	}
}
