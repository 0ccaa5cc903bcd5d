package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"fbmpk/internal/matgen"
	"fbmpk/internal/sparse"
)

// bandedMatrix produces a matrix with genuine BFS level structure
// (random matrices collapse to 2-3 levels, which is a weak test).
func bandedMatrix(rng *rand.Rand, n, halfBand int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, n*(2*halfBand+1))
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1+rng.Float64())
		for d := 1; d <= halfBand; d++ {
			if i-d >= 0 && rng.Float64() < 0.8 {
				coo.Add(i, i-d, rng.NormFloat64()/4)
			}
			if i+d < n && rng.Float64() < 0.8 {
				coo.Add(i, i+d, rng.NormFloat64()/4)
			}
		}
	}
	return coo.ToCSR()
}

func TestBFSLevelsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(80)
		a := bandedMatrix(rng, n, 1+rng.Intn(3))
		lp, err := BFSLevels(a)
		if err != nil {
			return false
		}
		if lp.Validate(a) != nil {
			return false
		}
		// Level partition covers all rows exactly once.
		seen := make([]bool, n)
		for _, r := range lp.Rows {
			if seen[r] {
				return false
			}
			seen[r] = true
		}
		return int(lp.LevelPtr[lp.NumLevels()]) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBFSLevelsDisconnected(t *testing.T) {
	// Three components, stacked: each component's BFS starts one level
	// past the previous component's deepest level, so no level mixes
	// rows of different components.
	coo := sparse.NewCOO(6, 6, 10)
	coo.AddSym(0, 1, 1)
	coo.AddSym(1, 2, 1)
	coo.AddSym(3, 4, 1)
	for i := 0; i < 6; i++ {
		coo.Add(i, i, 1)
	}
	a := coo.ToCSR()
	lp, err := BFSLevels(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := lp.Validate(a); err != nil {
		t.Error(err)
	}
	want := []int32{0, 1, 2, 3, 4, 5}
	for i, w := range want {
		if lp.Level[i] != w {
			t.Errorf("level[%d] = %d, want %d", i, lp.Level[i], w)
		}
	}
	if lp.NumLevels() != 6 {
		t.Errorf("NumLevels = %d, want 6", lp.NumLevels())
	}
}

// bfsLevelsOracle is BFSLevels as it was first written: transpose the
// matrix values and all, materialize the merged, deduplicated,
// self-loop-free adjacency of the symmetrized pattern row by row (sort
// and compact, no two-pointer merge), and run the BFS over that. Kept as
// the formulation the pattern-transpose one must match array for array.
func bfsLevelsOracle(a *sparse.CSR) *LevelPartition {
	n := a.Rows
	t := a.Transpose()
	nbrs := make([][]int32, n)
	for i := range nbrs {
		ca, _ := a.Row(i)
		cb, _ := t.Row(i)
		both := append(slices.Clone(ca), cb...)
		slices.Sort(both)
		for _, c := range slices.Compact(both) {
			if int(c) != i {
				nbrs[i] = append(nbrs[i], c)
			}
		}
	}
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	maxLevel := int32(-1)
	for start := 0; start < n; start++ {
		if level[start] >= 0 {
			continue
		}
		level[start] = maxLevel + 1
		for queue := []int32{int32(start)}; len(queue) > 0; queue = queue[1:] {
			v := queue[0]
			maxLevel = max(maxLevel, level[v])
			for _, u := range nbrs[v] {
				if level[u] < 0 {
					level[u] = level[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	nl := int(maxLevel) + 1
	lp := &LevelPartition{Level: level, LevelPtr: make([]int32, nl+1)}
	for l := 0; l < nl; l++ {
		for i, li := range level {
			if int(li) == l {
				lp.Rows = append(lp.Rows, int32(i))
			}
		}
		lp.LevelPtr[l+1] = int32(len(lp.Rows))
	}
	return lp
}

func TestBFSLevelsMatchesAdjacencyOracle(t *testing.T) {
	beds := map[string]*sparse.CSR{}
	for si, spec := range matgen.Suite() {
		beds[spec.Name] = spec.Generate(0.002, uint64(si)+1)
	}
	diag := sparse.NewCOO(40, 40, 40)
	for i := 0; i < 40; i++ {
		diag.Add(i, i, 1)
	}
	beds["diagonal"] = diag.ToCSR()
	// Several components, one of them a row with no entry at all.
	comps := sparse.NewCOO(30, 30, 80)
	for i := 0; i+3 < 30; i += 5 {
		comps.AddSym(i, i+2, 1)
		comps.AddSym(i+2, i+3, 1)
		comps.AddSym(i+1, i+3, 1)
	}
	beds["components"] = comps.ToCSR()
	// A directed pattern: each edge stored one way only, so half the
	// neighbors of a row exist only in the transpose; no diagonal.
	rng := rand.New(rand.NewSource(9))
	dir := sparse.NewCOO(120, 120, 400)
	for i := 0; i+1 < 120; i++ {
		if i%7 != 0 {
			dir.Add(i+1, i, 1)
		}
		dir.Add(rng.Intn(i+1), i, 1)
	}
	beds["directed"] = dir.ToCSR()
	beds["empty"] = sparse.NewCOO(0, 0, 0).ToCSR()

	for name, a := range beds {
		got, err := BFSLevels(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := bfsLevelsOracle(a)
		if !slices.Equal(got.Level, want.Level) || !slices.Equal(got.LevelPtr, want.LevelPtr) || !slices.Equal(got.Rows, want.Rows) {
			t.Errorf("%s (n=%d): level partition differs from the merged-adjacency oracle (%d levels vs %d)",
				name, a.Rows, got.NumLevels(), want.NumLevels())
		}
		if name == "diagonal" && got.NumLevels() != a.Rows {
			t.Errorf("diagonal: %d levels, want %d singletons", got.NumLevels(), a.Rows)
		}
	}
}

// TestBFSLevelsAllocation is the tripwire against a value transpose
// (12 bytes an entry, a whole second matrix) coming back: the pattern
// transpose and the merged adjacency are 4 bytes an entry each,
// everything else O(n).
func TestBFSLevelsAllocation(t *testing.T) {
	spec, err := matgen.ByName("pwtk")
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Generate(0.02, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lp, err := BFSLevels(a)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	csr := uint64(12*a.NNZ()) + uint64(8*(a.Rows+1))
	limit := csr*3/4 + uint64(48*a.Rows+4*lp.NumLevels())
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("BFSLevels allocated %d bytes on a %d-byte CSR, limit %d", got, csr, limit)
	}
}
