package core

import (
	"math/rand"
	"testing"
	"testing/quick"

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
