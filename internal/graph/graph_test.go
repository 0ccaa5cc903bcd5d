package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fbmpk/internal/sparse"
)

func randomSym(rng *rand.Rand, n, perRow int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 2*n*(perRow+1))
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
		for k := 0; k < perRow; k++ {
			coo.AddSym(i, rng.Intn(n), 1)
		}
	}
	return coo.ToCSR()
}

func uniformBlocks(n, blockSize int) []int32 {
	var ptr []int32
	for i := 0; i <= n; i += blockSize {
		ptr = append(ptr, int32(i))
	}
	if ptr[len(ptr)-1] != int32(n) {
		ptr = append(ptr, int32(n))
	}
	return ptr
}

func TestFromCSRPattern(t *testing.T) {
	// 0-1, 1-2 chain with an asymmetric extra entry (2,0): pattern is
	// symmetrized, so 0 and 2 become neighbors both ways.
	coo := sparse.NewCOO(3, 3, 8)
	coo.Add(0, 0, 1)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	coo.Add(1, 1, 1)
	coo.Add(1, 2, 1)
	coo.Add(2, 1, 1)
	coo.Add(2, 2, 1)
	coo.Add(2, 0, 1) // asymmetric
	g, err := FromCSRPattern(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 2 || g.Degree(1) != 2 || g.Degree(2) != 2 {
		t.Errorf("degrees = %d %d %d, want 2 2 2", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	nbr0 := g.Neighbors(0)
	if len(nbr0) != 2 || nbr0[0] != 1 || nbr0[1] != 2 {
		t.Errorf("Neighbors(0) = %v, want [1 2]", nbr0)
	}
}

func TestFromCSRPatternRejectsRectangular(t *testing.T) {
	m := &sparse.CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 0, 0}}
	if _, err := FromCSRPattern(m); err == nil {
		t.Error("accepted rectangular matrix")
	}
}

func TestBlockGraphTridiagonal(t *testing.T) {
	// Tridiagonal 8x8 with blocks of 2: block graph is a path
	// 0-1-2-3; greedy coloring needs exactly 2 colors.
	n := 8
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	a := coo.ToCSR()
	g, err := BlockGraph(a, uniformBlocks(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 {
		t.Fatalf("block graph has %d vertices, want 4", g.N)
	}
	for v := 0; v < g.N; v++ {
		wantDeg := 2
		if v == 0 || v == g.N-1 {
			wantDeg = 1
		}
		if g.Degree(v) != wantDeg {
			t.Errorf("block %d degree = %d, want %d", v, g.Degree(v), wantDeg)
		}
	}
	color, nc := GreedyColor(g)
	if nc != 2 {
		t.Errorf("path coloring used %d colors, want 2", nc)
	}
	if err := ValidateColoring(g, color, nc); err != nil {
		t.Error(err)
	}
}

func TestBlockGraphBadBlocks(t *testing.T) {
	a := randomSym(rand.New(rand.NewSource(1)), 10, 2)
	if _, err := BlockGraph(a, []int32{0, 5}); err == nil {
		t.Error("accepted block pointer not covering all rows")
	}
	if _, err := BlockGraph(a, []int32{1, 10}); err == nil {
		t.Error("accepted block pointer not starting at 0")
	}
	if _, err := BlockGraph(a, []int32{0, 7, 5, 10}); err == nil {
		t.Error("accepted non-monotone block pointer")
	}
}

// Property: greedy coloring is always valid and uses at most
// maxDegree+1 colors.
func TestGreedyColorPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		a := randomSym(rng, n, 1+rng.Intn(4))
		bs := 1 + rng.Intn(5)
		g, err := BlockGraph(a, uniformBlocks(n, bs))
		if err != nil {
			return false
		}
		maxDeg := 0
		for v := 0; v < g.N; v++ {
			if d := g.Degree(v); d > maxDeg {
				maxDeg = d
			}
		}
		color, nc := GreedyColor(g)
		return ValidateColoring(g, color, nc) == nil && nc <= maxDeg+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGreedyColorSingletonAndEmpty(t *testing.T) {
	g := &Adj{N: 1, Ptr: []int64{0, 0}}
	color, nc := GreedyColor(g)
	if nc != 1 || color[0] != 0 {
		t.Errorf("singleton coloring = %v (%d colors)", color, nc)
	}
	g0 := &Adj{N: 0, Ptr: []int64{0}}
	_, nc0 := GreedyColor(g0)
	if nc0 != 0 {
		t.Errorf("empty graph used %d colors", nc0)
	}
}

func TestValidateColoringCatchesErrors(t *testing.T) {
	// Triangle graph.
	g := &Adj{N: 3, Ptr: []int64{0, 2, 4, 6}, Nbr: []int32{1, 2, 0, 2, 0, 1}}
	if err := ValidateColoring(g, []int32{0, 0, 1}, 2); err == nil {
		t.Error("accepted same-colored neighbors")
	}
	if err := ValidateColoring(g, []int32{0, 1, 5}, 3); err == nil {
		t.Error("accepted out-of-range color")
	}
	if err := ValidateColoring(g, []int32{0, 1}, 2); err == nil {
		t.Error("accepted short color slice")
	}
	if err := ValidateColoring(g, []int32{0, 1, 2}, 3); err != nil {
		t.Errorf("rejected valid coloring: %v", err)
	}
}

func TestGreedyColorStar(t *testing.T) {
	// Star graph: hub 0 with 5 leaves, optimally 2 colors.
	g := &Adj{N: 6, Ptr: []int64{0, 5, 6, 7, 8, 9, 10},
		Nbr: []int32{1, 2, 3, 4, 5, 0, 0, 0, 0, 0}}
	color, nc := GreedyColor(g)
	if nc != 2 {
		t.Errorf("star used %d colors, want 2", nc)
	}
	if err := ValidateColoring(g, color, nc); err != nil {
		t.Error(err)
	}
}
