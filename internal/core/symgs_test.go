package core

import (
	"math"
	"math/rand"
	"testing"

	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// spdMatrix builds a well-conditioned diagonally dominant symmetric
// matrix (SYMGS converges on it).
func spdMatrix(rng *rand.Rand, n, perRow int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 2*n*(perRow+1))
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < perRow; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := -(0.1 + 0.4*rng.Float64())
			coo.AddSym(i, j, v)
			row[i] += -v
			row[j] += -v
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, row[i]+1)
	}
	return coo.ToCSR()
}

func residualNorm(a *sparse.CSR, b, x []float64) float64 {
	r := make([]float64, len(b))
	sparse.SpMV(a, x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return norm2(r)
}

func norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func TestSymGSSerialConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	n := 120
	a := spdMatrix(rng, n, 4)
	tri, err := sparse.Split(a)
	if err != nil {
		t.Fatal(err)
	}
	xStar := randVec(rng, n)
	b := make([]float64, n)
	sparse.SpMV(a, xStar, b)
	x := make([]float64, n)
	prev := residualNorm(a, b, x)
	for s := 0; s < 6; s++ {
		if err := SymGSSerial(tri, b, x, 1); err != nil {
			t.Fatal(err)
		}
		cur := residualNorm(a, b, x)
		if cur > prev*1.0001 {
			t.Fatalf("sweep %d: residual rose %g -> %g", s, prev, cur)
		}
		prev = cur
	}
	if prev > 1e-3*norm2(b) {
		t.Errorf("residual after 6 sweeps still %g", prev)
	}
}

func TestSymGSMultiSweepEqualsRepeated(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := spdMatrix(rng, 60, 3)
	tri, _ := sparse.Split(a)
	b := randVec(rng, 60)
	x1 := make([]float64, 60)
	x2 := make([]float64, 60)
	if err := SymGSSerial(tri, b, x1, 3); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if err := SymGSSerial(tri, b, x2, 1); err != nil {
			t.Fatal(err)
		}
	}
	if d := sparse.MaxAbsDiff(x1, x2); d != 0 {
		t.Errorf("sweeps=3 differs from 3x sweeps=1 by %g", d)
	}
}

func TestSymGSZeroDiagonalSkipped(t *testing.T) {
	// Saddle-point-like: zero diagonal rows keep their x values.
	coo := sparse.NewCOO(4, 4, 8)
	coo.Add(0, 0, 2)
	coo.Add(1, 1, 3)
	coo.AddSym(2, 0, 1) // row 2 has no diagonal
	coo.Add(3, 3, 1)
	a := coo.ToCSR()
	tri, _ := sparse.Split(a)
	b := []float64{1, 1, 1, 1}
	x := []float64{9, 9, 9, 9}
	if err := SymGSSerial(tri, b, x, 1); err != nil {
		t.Fatal(err)
	}
	if x[2] != 9 {
		t.Errorf("zero-diagonal row was updated: x[2] = %g", x[2])
	}
	if x[3] != 1 {
		t.Errorf("x[3] = %g, want 1", x[3])
	}
}

func TestSymGSErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := spdMatrix(rng, 10, 2)
	tri, _ := sparse.Split(a)
	if err := SymGSSerial(tri, make([]float64, 9), make([]float64, 10), 1); err == nil {
		t.Error("accepted short b")
	}
	if err := SymGSSerial(tri, make([]float64, 10), make([]float64, 10), 0); err == nil {
		t.Error("accepted sweeps=0")
	}
}

// Parallel SYMGS over ABMC must reproduce the serial sweep on the
// permuted matrix exactly: same-colored blocks are independent, so the
// parallel update order is equivalent to the sequential one.
func TestSymGSParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, workers := range []int{1, 2, 4} {
		pool := parallel.NewPool(workers)
		for trial := 0; trial < 3; trial++ {
			n := 30 + rng.Intn(100)
			a := spdMatrix(rng, n, 3)
			ord, pm, err := reorder.ABMCReorder(a, reorder.ABMCOptions{NumBlocks: 8})
			if err != nil {
				t.Fatal(err)
			}
			tri, err := sparse.Split(pm)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewSymGSParallel(tri, ord, pool)
			if err != nil {
				t.Fatal(err)
			}
			b := randVec(rng, n)
			xSer := make([]float64, n)
			xPar := make([]float64, n)
			if err := SymGSSerial(tri, b, xSer, 2); err != nil {
				t.Fatal(err)
			}
			if err := g.Apply(b, xPar, 2); err != nil {
				t.Fatal(err)
			}
			if d := sparse.MaxAbsDiff(xSer, xPar); d > 1e-12 {
				t.Fatalf("workers=%d trial=%d: parallel SYMGS differs by %g", workers, trial, d)
			}
		}
		pool.Close()
	}
}

func TestSymGSParallelErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := spdMatrix(rng, 20, 2)
	ord, pm, _ := reorder.ABMCReorder(a, reorder.ABMCOptions{NumBlocks: 4})
	tri, _ := sparse.Split(pm)
	pool := parallel.NewPool(2)
	defer pool.Close()
	g, err := NewSymGSParallel(tri, ord, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Apply(make([]float64, 19), make([]float64, 20), 1); err == nil {
		t.Error("accepted short b")
	}
	if err := g.Apply(make([]float64, 20), make([]float64, 20), 0); err == nil {
		t.Error("accepted sweeps=0")
	}
	badOrd := &reorder.ABMCResult{Perm: reorder.Perm{0, 1, 2, 3, 4},
		BlockPtr: []int32{0, 5}, ColorPtr: []int32{0, 1}, NumColors: 1}
	if _, err := NewSymGSParallel(tri, badOrd, pool); err == nil {
		t.Error("accepted mismatched ordering")
	}
}

// SymGSSerial applies sweeps symmetric Gauss-Seidel iterations to
// A x = b in place on x. Rows with a zero diagonal are skipped (their
// x entry is left unchanged), matching common practice for
// saddle-point test matrices.
func SymGSSerial(tri *sparse.Triangular, b, x []float64, sweeps int) error {
	return symGS(serialSchedule(tri), nil, tri, b, x, sweeps)
}

// SymGSParallel applies SYMGS with ABMC multi-color parallelization:
// the standalone form of the plan's parallel smoother. tri and ord must
// describe the same permuted matrix; b and x are in the permuted
// ordering.
type SymGSParallel struct {
	tri *sparse.Triangular
	sch *colorSchedule
}

// NewSymGSParallel prepares a parallel SYMGS executor over an
// ABMC-ordered split matrix.
func NewSymGSParallel(tri *sparse.Triangular, ord *reorder.ABMCResult, pool *parallel.Pool) (*SymGSParallel, error) {
	sch, err := newColorSchedule(tri, ord, pool)
	if err != nil {
		return nil, err
	}
	return &SymGSParallel{tri: tri, sch: sch}, nil
}

// Apply runs sweeps SYMGS iterations on x in place.
func (g *SymGSParallel) Apply(b, x []float64, sweeps int) error {
	return symGS(g.sch, nil, g.tri, b, x, sweeps)
}
