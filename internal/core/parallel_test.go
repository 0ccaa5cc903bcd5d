package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

func randomSymCSR(rng *rand.Rand, n, perRow int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 2*n*(perRow+1))
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1+rng.Float64())
		for k := 0; k < perRow; k++ {
			coo.AddSym(i, rng.Intn(n), rng.NormFloat64()/float64(perRow+2))
		}
	}
	return coo.ToCSR()
}

func TestStandardMPKParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, workers := range []int{1, 2, 4} {
		pool := parallel.NewPool(workers)
		for trial := 0; trial < 4; trial++ {
			n := 10 + rng.Intn(80)
			a := randomCSR(rng, n, 4)
			x0 := randVec(rng, n)
			for _, k := range []int{1, 2, 5, 8} {
				want := refMPK(a, x0, k)
				got, err := StandardMPKParallel(a, x0, k, pool, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := sparse.RelMaxDiff(got, want); d > 1e-12 {
					t.Fatalf("workers=%d k=%d: diff %g", workers, k, d)
				}
			}
		}
		pool.Close()
	}
}

func TestStandardMPKParallelCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 40
	a := randomCSR(rng, n, 3)
	x0 := randVec(rng, n)
	pool := parallel.NewPool(3)
	defer pool.Close()
	count := 0
	_, err := StandardMPKParallel(a, x0, 5, pool, func(p int, x []float64) {
		count++
		if d := sparse.RelMaxDiff(x, refMPK(a, x0, p)); d > 1e-12 {
			t.Errorf("iterate %d diff %g", p, d)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("callback fired %d times, want 5", count)
	}
}

// The headline parallel-correctness property: FBMPK over ABMC colors
// equals the standard MPK for any k, worker count, block count and
// layout — on symmetric and unsymmetric matrices.
func TestFBParallelMatchesStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, workers := range []int{1, 2, 3, 5} {
		pool := parallel.NewPool(workers)
		for trial := 0; trial < 3; trial++ {
			n := 20 + rng.Intn(100)
			var a *sparse.CSR
			if trial%2 == 0 {
				a = randomSymCSR(rng, n, 3)
			} else {
				a = randomCSR(rng, n, 4)
			}
			for _, nb := range []int{4, 16} {
				ord, b, err := reorder.ABMCReorder(a, reorder.ABMCOptions{NumBlocks: nb})
				if err != nil {
					t.Fatal(err)
				}
				if err := ord.Validate(b); err != nil {
					t.Fatal(err)
				}
				tri, err := sparse.Split(b)
				if err != nil {
					t.Fatal(err)
				}
				fb, err := NewFBParallel(tri, ord, pool)
				if err != nil {
					t.Fatal(err)
				}
				x0 := randVec(rng, n)
				px := make([]float64, n)
				ord.Perm.ApplyVec(x0, px)
				for _, k := range []int{1, 2, 3, 6, 7} {
					wantPerm := refMPK(b, px, k)
					for _, btb := range []bool{false, true} {
						got, err := fb.Run(px, k, btb, nil)
						if err != nil {
							t.Fatal(err)
						}
						if d := sparse.RelMaxDiff(got, wantPerm); d > 1e-10 {
							t.Fatalf("workers=%d nb=%d k=%d btb=%v: diff %g",
								workers, nb, k, btb, d)
						}
					}
				}
			}
		}
		pool.Close()
	}
}

func TestFBParallelCombo(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 80
	a := randomSymCSR(rng, n, 3)
	ord, b, err := reorder.ABMCReorder(a, reorder.ABMCOptions{NumBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	tri, _ := sparse.Split(b)
	pool := parallel.NewPool(4)
	defer pool.Close()
	fb, err := NewFBParallel(tri, ord, pool)
	if err != nil {
		t.Fatal(err)
	}
	x0 := randVec(rng, n)
	px := make([]float64, n)
	ord.Perm.ApplyVec(x0, px)
	k := 5
	coeffs := []float64{1, -2, 0, 3, 0.5, -1}
	want, err := SSpMVStandard(b, coeffs, px)
	if err != nil {
		t.Fatal(err)
	}
	for _, btb := range []bool{false, true} {
		combo, err := fb.Run(px, k, btb, coeffs)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.RelMaxDiff(combo, want); d > 1e-10 {
			t.Fatalf("btb=%v: combo diff %g", btb, d)
		}
	}
}

func TestFBParallelErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randomSymCSR(rng, 30, 2)
	ord, b, _ := reorder.ABMCReorder(a, reorder.ABMCOptions{NumBlocks: 4})
	tri, _ := sparse.Split(b)
	pool := parallel.NewPool(2)
	defer pool.Close()
	fb, err := NewFBParallel(tri, ord, pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.Run(make([]float64, 29), 2, true, nil); err == nil {
		t.Error("accepted short x0")
	}
	if _, err := fb.Run(make([]float64, 30), 0, true, nil); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := fb.Run(make([]float64, 30), 2, true, []float64{1}); err == nil {
		t.Error("accepted short coeffs")
	}
	// Mismatched ordering size.
	badOrd := &reorder.ABMCResult{Perm: reorder.Identity(10),
		BlockPtr: []int32{0, 10}, ColorPtr: []int32{0, 1}, NumColors: 1}
	if _, err := NewFBParallel(tri, badOrd, pool); err == nil {
		t.Error("accepted mismatched ordering")
	}
}

func TestPlanAllConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := 90
	a := randomSymCSR(rng, n, 3)
	x0 := randVec(rng, n)
	k := 5
	want := refMPK(a, x0, k)

	cases := []Options{
		{Engine: EngineStandard},
		{Engine: EngineStandard, Threads: 3},
		{Engine: EngineForwardBackward},
		{Engine: EngineForwardBackward, BtB: true},
		{Engine: EngineForwardBackward, ForceABMC: true, NumBlocks: 8},
		{Engine: EngineForwardBackward, BtB: true, Threads: 3, NumBlocks: 8},
		{Engine: EngineForwardBackward, Threads: 2, NumBlocks: 16},
		{Engine: EngineForwardBackward, ForceABMC: true, NumBlocks: 6},
		DefaultOptions(2),
	}
	for i, opt := range cases {
		p, err := NewPlan(a, opt)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := p.MPK(x0, k)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if d := sparse.RelMaxDiff(got, want); d > 1e-10 {
			t.Errorf("case %d (%+v): diff %g", i, opt, d)
		}
		// Second run must be repeatable (scratch reuse).
		got2, err := p.MPK(x0, k)
		if err != nil {
			t.Fatalf("case %d rerun: %v", i, err)
		}
		if d := sparse.MaxAbsDiff(got, got2); d != 0 {
			t.Errorf("case %d: rerun differs by %g", i, d)
		}
		p.Close()
		p.Close() // idempotent
	}
}

func TestPlanSSpMV(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	n := 60
	a := randomSymCSR(rng, n, 3)
	x0 := randVec(rng, n)
	coeffs := []float64{0.5, 1, 0, -2, 1.5}
	want, err := SSpMVStandard(a, coeffs, x0)
	if err != nil {
		t.Fatal(err)
	}
	for i, opt := range []Options{
		{Engine: EngineStandard},
		{Engine: EngineStandard, Threads: 2},
		{Engine: EngineForwardBackward, BtB: true},
		DefaultOptions(3),
	} {
		p, err := NewPlan(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.SSpMV(coeffs, x0)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.RelMaxDiff(got, want); d > 1e-10 {
			t.Errorf("case %d: SSpMV diff %g", i, d)
		}
		// Degenerate single coefficient.
		c0, err := p.SSpMV([]float64{3}, x0)
		if err != nil {
			t.Fatal(err)
		}
		for j := range c0 {
			if d := c0[j] - 3*x0[j]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("case %d: degenerate SSpMV wrong", i)
			}
		}
		p.Close()
	}
}

func TestPlanRejectsBadInputs(t *testing.T) {
	rect := &sparse.CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 0, 0}}
	if _, err := NewPlan(rect, Options{}); err == nil {
		t.Error("NewPlan accepted rectangular matrix")
	}
	rng := rand.New(rand.NewSource(27))
	a := randomSymCSR(rng, 10, 2)
	p, err := NewPlan(a, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.MPK(make([]float64, 9), 2); err == nil {
		t.Error("MPK accepted short x0")
	}
	if p.N() != 10 {
		t.Errorf("N = %d", p.N())
	}
	if p.Ordering() == nil {
		t.Error("parallel FB plan should have an ABMC ordering")
	}
}

// Property: the full Plan pipeline (permute, parallel FB, unpermute)
// equals the baseline for random matrices and parameters.
func TestPlanQuickProperty(t *testing.T) {
	f := func(seed int64, kRaw, nbRaw, thrRaw uint8, btb bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		a := randomCSR(rng, n, 1+rng.Intn(4))
		x0 := randVec(rng, n)
		k := 1 + int(kRaw)%8
		opt := Options{
			Engine:    EngineForwardBackward,
			BtB:       btb,
			Threads:   1 + int(thrRaw)%4,
			NumBlocks: 1 + int(nbRaw)%20,
		}
		p, err := NewPlan(a, opt)
		if err != nil {
			return false
		}
		defer p.Close()
		got, err := p.MPK(x0, k)
		if err != nil {
			return false
		}
		return sparse.RelMaxDiff(got, refMPK(a, x0, k)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// FBParallel executes the forward-backward pipeline in parallel over
// an ABMC-ordered matrix: the parallel FB engine without a plan around
// it, for the suites that hold it to the serial one. The pool is
// borrowed, not owned.
type FBParallel struct {
	tri *sparse.Triangular
	sch *colorSchedule
}

// NewFBParallel prepares a parallel FBMPK executor. tri must be the
// split of the ABMC-permuted matrix; ord the ordering that produced it.
func NewFBParallel(tri *sparse.Triangular, ord *reorder.ABMCResult, pool *parallel.Pool) (*FBParallel, error) {
	sch, err := newColorSchedule(tri, ord, pool)
	if err != nil {
		return nil, err
	}
	return &FBParallel{tri: tri, sch: sch}, nil
}

// Run computes A^k x0 (x0 and the result in the PERMUTED numbering).
// btb selects the interleaved layout; coeffs (nil or length k+1) makes
// it return the SSpMV combination instead.
func (f *FBParallel) Run(x0 []float64, k int, btb bool, coeffs []float64) ([]float64, error) {
	return f.RunCapture(x0, k, btb, coeffs, nil)
}

// RunCapture is Run with an iterate observer: onIterate fires after
// every completed power, on worker 0 (see fbState.work), and the call
// returns nil.
func (f *FBParallel) RunCapture(x0 []float64, k int, btb bool, coeffs []float64, onIterate IterateFunc) ([]float64, error) {
	return fbPowers(f.sch, new(fbState), nil, f.tri, x0, k, btb, coeffs, onIterate)
}

// FBParallelMulti is FBParallel for a block of right-hand sides: same
// schedule, every slot m stripes wide.
type FBParallelMulti struct {
	fb *FBParallel
}

// NewFBParallelMulti wraps a prepared FBParallel for batched execution.
func NewFBParallelMulti(fb *FBParallel) *FBParallelMulti {
	return &FBParallelMulti{fb: fb}
}

// Run computes A^k x_j for every vector in xs (all in the PERMUTED
// numbering) with one batched pipeline pass. btb selects the
// interleaved stripe layout; coeffs (nil or length k+1) makes it return
// the SSpMV combination of every vector instead.
func (f *FBParallelMulti) Run(xs [][]float64, k int, btb bool, coeffs []float64) ([][]float64, error) {
	return fbPowersMulti(f.fb.sch, new(fbState), nil, f.fb.tri, xs, k, btb, coeffs)
}

// Workers returns the worker count of the underlying executor's pool.
func (f *FBParallelMulti) Workers() int { return f.fb.sch.team.workers() }

// StandardMPKParallel is the baseline with a row-parallel SpMV kernel:
// rows are partitioned by nonzero count once, and the workers
// barrier-synchronize between the k invocations. This mirrors the
// paper's baseline methodology ("the same optimized SpMV kernel").
func StandardMPKParallel(a *sparse.CSR, x0 []float64, k int, pool *parallel.Pool, onIterate IterateFunc) ([]float64, error) {
	return standardPowers(newTeam(pool), parallel.PartitionByPtr(a.Rows, pool.Workers(), a.RowPtr), nil, a, sparse.CopyVec(x0), 1, k, onIterate)
}
