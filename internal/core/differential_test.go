package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// The core's differential tests share one driver. A bed holds a matrix
// and the plans NewPlan built of it, one per option set; bed.check runs
// one entry point on each and holds every result vector to its oracle,
// at the test's own tolerance (RelMaxDiff): Algorithm 1 (refMPK, or
// horner for a combination), the plan's own single-vector call (self),
// a serial plan of the same layout over the matrix in the plan's ABMC
// order (serial), or the plan of another matrix (fresh). A plan with one worker is serial, so there NumBlocks
// is inert. Every engine x option x entry point is the root package's
// conformance table; DESIGN.md §5 lists what only these tests hold.

func randomCSR(rng *rand.Rand, n, perRow int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, n*(perRow+1))
	for i := 0; i < n; i++ {
		coo.Add(i, i, 0.5+rng.Float64())
		for k := 0; k < perRow; k++ {
			coo.Add(i, rng.Intn(n), rng.NormFloat64()/float64(perRow+1))
		}
	}
	return coo.ToCSR()
}

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

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func randBlock(rng *rand.Rand, n, m int) [][]float64 {
	xs := make([][]float64, m)
	for j := range xs {
		xs[j] = randVec(rng, n)
	}
	return xs
}

// randCoeffs draws the k+1 coefficients of a degree-k combination.
func randCoeffs(rng *rand.Rand, k int) []float64 {
	coeffs := make([]float64, k+1)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64()
	}
	return coeffs
}

// refMPK computes A^k x with repeated dense-checked SpMV.
func refMPK(a *sparse.CSR, x0 []float64, k int) []float64 {
	x := sparse.CopyVec(x0)
	y := make([]float64, len(x0))
	for i := 0; i < k; i++ {
		sparse.SpMV(a, x, y)
		x, y = y, x
	}
	return x
}

// horner is the combination oracle: y = (((c_k A + c_{k-1}) A + ...) + c_0) x0.
func horner(a *sparse.CSR, coeffs, x0 []float64) []float64 {
	k := len(coeffs) - 1
	y, tmp := scaled(coeffs[k], x0), make([]float64, len(x0))
	for p := k - 1; p >= 0; p-- {
		sparse.SpMV(a, y, tmp)
		for i := range y {
			y[i] = tmp[i] + coeffs[p]*x0[i]
		}
	}
	return y
}

// layouts is o in the separate and in the back-to-back layout.
func layouts(o Options) []Options {
	sep, btb := o, o
	sep.BtB, btb.BtB = false, true
	return []Options{sep, btb}
}

// entry is a Plan entry point the driver runs.
type entry int

const (
	entryMPK        entry = iota // MPK(x, k)
	entryAll                     // MPKAll(x, k): the iterates 0..k
	entrySSpMV                   // SSpMV(coeffs, x)
	entryMulti                   // MPKMulti(xs, k)
	entrySSpMVMulti              // SSpMVMulti(coeffs, xs)
	entryComplex                 // SSpMVComplex(ccoeffs, x): the real part, then the imaginary
)

// oracle is what the driver holds a result to.
type oracle int

const (
	algorithm1 oracle = iota // refMPK on the bed's matrix, or horner for a combination
	self                     // the plan's own MPK or SSpMV, vector by vector
	serial                   // a serial plan of the layout over the matrix in the plan's ABMC order
	fresh                    // the plan of run.of's matrix under the same options
)

// run is one differential check: entry e of the plan of every option
// set in opts, at every power in ks — a combination at the degree of
// coeffs — within tol of the oracle.
type run struct {
	e       entry
	opts    []Options
	ks      []int
	coeffs  []float64
	ccoeffs []complex128
	tol     float64
	oracle  oracle
	rerun   bool // a second call must return the first one's bits
	of      *bed // fresh: the bed whose plans answer
}

// bed is a matrix and the plans the driver built of it, each closed
// when the test ends.
type bed struct {
	t     *testing.T
	a     *sparse.CSR
	plans map[Options]*Plan
	twins map[Options]*bed // serial: the matrix in a plan's ABMC order
	perms map[Options]reorder.Perm
}

func newBed(t *testing.T, a *sparse.CSR) *bed {
	return &bed{t: t, a: a, plans: map[Options]*Plan{}, twins: map[Options]*bed{}, perms: map[Options]reorder.Perm{}}
}

// plan returns the plan of the bed's matrix under opt, built once.
func (b *bed) plan(opt Options) *Plan {
	b.t.Helper()
	if p := b.plans[opt]; p != nil {
		return p
	}
	p, err := NewPlan(b.a, opt)
	if err != nil {
		b.t.Fatalf("NewPlan %+v: %v", opt, err)
	}
	b.t.Cleanup(p.Close)
	b.plans[opt] = p
	return p
}

// twin returns the serial plan the plan under opt must reproduce — one
// worker, opt's layout, the bed's matrix in the plan's ABMC order (its
// own without one) — and that order.
func (b *bed) twin(opt Options) (*Plan, reorder.Perm) {
	b.t.Helper()
	if b.twins[opt] == nil {
		perm, pa := make(reorder.Perm, b.a.Rows), b.a
		for i := range perm {
			perm[i] = int32(i)
		}
		if ord := b.plan(opt).Ordering(); ord != nil {
			var err error
			perm = ord.Perm
			if pa, err = perm.ApplySym(b.a); err != nil {
				b.t.Fatal(err)
			}
		}
		b.twins[opt], b.perms[opt] = newBed(b.t, pa), perm
	}
	return b.twins[opt].plan(Options{Engine: EngineForwardBackward, BtB: opt.BtB}), b.perms[opt]
}

// results runs r's entry on p: one vector per result, the iterates
// 0..k for MPKAll.
func (r run) results(p *Plan, xs [][]float64, k int) ([][]float64, error) {
	var y []float64
	var err error
	switch r.e {
	case entryAll:
		return p.MPKAll(xs[0], k)
	case entryMulti:
		return p.MPKMulti(xs, k)
	case entrySSpMVMulti:
		return p.SSpMVMulti(r.coeffs, xs)
	case entryComplex:
		re, im, err := p.SSpMVComplex(r.ccoeffs, xs[0])
		return [][]float64{re, im}, err
	case entrySSpMV:
		y, err = p.SSpMV(r.coeffs, xs[0])
	default:
		y, err = p.MPK(xs[0], k)
	}
	return [][]float64{y}, err
}

// want returns what r's oracle says the plan under opt answers at k.
func (b *bed) want(r run, opt Options, xs [][]float64, k int) (out [][]float64) {
	b.t.Helper()
	switch r.oracle {
	case self:
		one := run{e: entryMPK, coeffs: r.coeffs}
		if r.coeffs != nil {
			one.e = entrySSpMV
		}
		for _, x := range xs {
			y, err := one.results(b.plan(opt), [][]float64{x}, k)
			if err != nil {
				b.t.Fatal(err)
			}
			out = append(out, y[0])
		}
	case fresh:
		ys, err := r.results(r.of.plan(opt), xs, k)
		if err != nil {
			b.t.Fatal(err)
		}
		out = ys
	case serial:
		tw, perm := b.twin(opt)
		in := make([][]float64, len(xs))
		for j, x := range xs {
			in[j] = make([]float64, len(x))
			perm.ApplyVec(x, in[j])
		}
		ys, err := r.results(tw, in, k)
		if err != nil {
			b.t.Fatal(err)
		}
		for _, y := range ys {
			out = append(out, make([]float64, len(y)))
			perm.UnapplyVec(y, out[len(out)-1])
		}
	default:
		for _, x := range xs {
			switch {
			case r.ccoeffs != nil:
				re, im := make([]float64, len(r.ccoeffs)), make([]float64, len(r.ccoeffs))
				for i, c := range r.ccoeffs {
					re[i], im[i] = real(c), imag(c)
				}
				out = append(out, horner(b.a, re, x), horner(b.a, im, x))
			case r.coeffs != nil:
				out = append(out, horner(b.a, r.coeffs, x))
			case r.e == entryAll:
				for p := 0; p <= k; p++ {
					out = append(out, refMPK(b.a, x, p))
				}
			default:
				out = append(out, refMPK(b.a, x, k))
			}
		}
	}
	return out
}

// check runs r on the bed: every option set, every power (or the
// combination's degree), every result vector within r.tol of the oracle
// — its bits, at tol 0 — and MPKAll's iterate 0 the start vector's bits.
func (b *bed) check(r run, xs ...[]float64) {
	b.t.Helper()
	ks := r.ks
	if r.coeffs != nil || r.ccoeffs != nil {
		ks = []int{len(r.coeffs) + len(r.ccoeffs) - 1}
	}
	for _, opt := range r.opts {
		for _, k := range ks {
			at := fmt.Sprintf("n=%d %+v entry %d k=%d", b.a.Rows, opt, r.e, k)
			got, err := r.results(b.plan(opt), xs, k)
			if err != nil {
				b.t.Fatalf("%s: %v", at, err)
			}
			want := b.want(r, opt, xs, k)
			if len(got) != len(want) {
				b.t.Fatalf("%s: %d results, want %d", at, len(got), len(want))
			}
			if r.e == entryAll && !slices.Equal(got[0], xs[0]) {
				b.t.Fatalf("%s: iterate 0 is not x0", at)
			}
			for j := range want {
				if d := sparse.RelMaxDiff(got[j], want[j]); d > r.tol || r.tol == 0 && !slices.Equal(got[j], want[j]) {
					b.t.Fatalf("%s vector %d: diff %g", at, j, d)
				}
			}
			if r.rerun {
				if again, err := r.results(b.plan(opt), xs, k); err != nil || !reflect.DeepEqual(again, got) {
					b.t.Fatalf("%s: a second call returns other bits (%v)", at, err)
				}
			}
		}
	}
}

var (
	fbSerial = Options{Engine: EngineForwardBackward}
	std      = Options{Engine: EngineStandard}
)

func TestStandardMPKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(40)
		a := randomCSR(rng, n, 3)
		x0 := randVec(rng, n)
		k := 1 + rng.Intn(9)
		got, err := StandardMPK(a, x0, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := refMPK(a, x0, k)
		if d := sparse.RelMaxDiff(got, want); d > 1e-12 {
			t.Fatalf("trial %d k=%d: diff %g", trial, k, d)
		}
	}
}

func TestStandardMPKIterateCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 20
	a := randomCSR(rng, n, 2)
	x0 := randVec(rng, n)
	var powers []int
	_, err := StandardMPK(a, x0, 4, func(p int, x []float64) {
		powers = append(powers, p)
		want := refMPK(a, x0, p)
		if d := sparse.RelMaxDiff(x, want); d > 1e-12 {
			t.Errorf("iterate %d: diff %g", p, d)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(powers) != 4 || powers[0] != 1 || powers[3] != 4 {
		t.Errorf("powers = %v", powers)
	}
}

func TestStandardMPKErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(rng, 5, 1)
	if _, err := StandardMPK(a, make([]float64, 4), 1, nil); err == nil {
		t.Error("accepted short x0")
	}
	if _, err := StandardMPK(a, make([]float64, 5), 0, nil); err == nil {
		t.Error("accepted k=0")
	}
	rect := &sparse.CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 0, 0}}
	if _, err := StandardMPK(rect, make([]float64, 3), 1, nil); err == nil {
		t.Error("accepted rectangular matrix")
	}
}

// The core equivalence property of the paper (DESIGN.md §5): FBMPK in
// both layouts reproduces the standard MPK for every k, odd and even.
func TestFBMPKSerialMatchesStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(50)
		b := newBed(t, randomCSR(rng, n, 4))
		b.check(run{opts: layouts(fbSerial), ks: []int{1, 2, 3, 4, 5, 6, 7, 8, 9}, tol: 1e-11}, randVec(rng, n))
	}
}

func TestFBMPKSerialQuickProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8, btb bool) bool {
		k := 1 + int(kRaw)%9
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(35)
		a := randomCSR(rng, n, 1+rng.Intn(5))
		tri, err := sparse.Split(a)
		if err != nil {
			return false
		}
		x0 := randVec(rng, n)
		got, err := FBMPKSerial(tri, x0, k, btb, nil, nil)
		if err != nil {
			return false
		}
		return sparse.RelMaxDiff(got, refMPK(a, x0, k)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFBMPKIteratesObserved: a serial plan's MPKAll, the iterate hook of
// the FB pipeline, shows every iterate, both layouts.
func TestFBMPKIteratesObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 30
	b := newBed(t, randomCSR(rng, n, 3))
	b.check(run{e: entryAll, opts: layouts(fbSerial), ks: []int{5}, tol: 1e-11}, randVec(rng, n))
}

// TestSSpMVAgainstHorner: the serial standard plan and both serial FB
// layouts evaluate the combination as Horner's rule does.
func TestSSpMVAgainstHorner(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(30)
		b := newBed(t, randomCSR(rng, n, 3))
		x0 := randVec(rng, n)
		coeffs := randCoeffs(rng, 1+rng.Intn(7))
		b.check(run{e: entrySSpMV, opts: append(layouts(fbSerial), std), coeffs: coeffs, tol: 1e-10}, x0)
	}
}

// TestSSpMVConstantOnly: a serial standard plan's degree-0 combination
// is the scaled start vector, and no coefficients are refused.
func TestSSpMVConstantOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := newBed(t, randomCSR(rng, 10, 2)).plan(std)
	x0 := randVec(rng, 10)
	y, err := p.SSpMV([]float64{2.5}, x0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if y[i] != 2.5*x0[i] {
			t.Fatal("constant-term SSpMV wrong")
		}
	}
	if _, err := p.SSpMV(nil, x0); err == nil {
		t.Error("accepted empty coefficients")
	}
}

func TestFBMPKErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomCSR(rng, 6, 2)
	tri, _ := sparse.Split(a)
	x := randVec(rng, 6)
	if _, err := FBMPKSerial(tri, x[:5], 2, true, nil, nil); err == nil {
		t.Error("accepted short x0")
	}
	if _, err := FBMPKSerial(tri, x, 0, true, nil, nil); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := FBMPKSerial(tri, x, 3, true, []float64{1, 2}, nil); err == nil {
		t.Error("accepted wrong-length coeffs")
	}
}

func TestFBMPKDiagonalOnlyMatrix(t *testing.T) {
	// Pure diagonal: L and U empty; exercises empty-row sweeps.
	n := 12
	coo := sparse.NewCOO(n, n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, float64(i%3)+0.5)
	}
	b := newBed(t, coo.ToCSR())
	b.check(run{opts: layouts(fbSerial), ks: []int{1, 2, 3, 4}, tol: 1e-13}, randVec(rand.New(rand.NewSource(9)), n))
}

func TestFBMPKZeroDiagonal(t *testing.T) {
	// KKT-style: some diagonal entries are structurally zero.
	n := 10
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n-1; i++ {
		coo.Add(i, i+1, 1)
		coo.Add(i+1, i, 1)
	}
	for i := 0; i < n/2; i++ {
		coo.Add(i, i, 2)
	}
	b := newBed(t, coo.ToCSR())
	b.check(run{opts: layouts(fbSerial)[1:], ks: []int{1, 2, 3, 6}, tol: 1e-12}, randVec(rand.New(rand.NewSource(10)), n))
}

// TestStandardMPKParallelMatchesSerial: the standard plan on 1, 2 and 4
// workers reproduces Algorithm 1.
func TestStandardMPKParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, workers := range []int{1, 2, 4} {
		for trial := 0; trial < 4; trial++ {
			n := 10 + rng.Intn(80)
			b := newBed(t, randomCSR(rng, n, 4))
			b.check(run{opts: []Options{{Engine: EngineStandard, Threads: workers}}, ks: []int{1, 2, 5, 8}, tol: 1e-12}, randVec(rng, n))
		}
	}
}

// TestStandardMPKParallelCallback: MPKAll on a 3-worker standard plan
// shows every iterate.
func TestStandardMPKParallelCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 40
	b := newBed(t, randomCSR(rng, n, 3))
	b.check(run{e: entryAll, opts: []Options{{Engine: EngineStandard, Threads: 3}}, ks: []int{5}, tol: 1e-12}, randVec(rng, n))
}

// The headline parallel-correctness property: FBMPK over ABMC colors
// equals the standard MPK for any k, worker count, block count and
// layout — on symmetric and unsymmetric matrices.
func TestFBParallelMatchesStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, workers := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 3; trial++ {
			n := 20 + rng.Intn(100)
			var a *sparse.CSR
			if trial%2 == 0 {
				a = randomSymCSR(rng, n, 3)
			} else {
				a = randomCSR(rng, n, 4)
			}
			b := newBed(t, a)
			for _, nb := range []int{4, 16} {
				ord, pa, err := reorder.ABMCReorder(a, reorder.ABMCOptions{NumBlocks: nb})
				if err != nil {
					t.Fatal(err)
				}
				if err := ord.Validate(pa); err != nil {
					t.Fatal(err)
				}
				opts := layouts(Options{Engine: EngineForwardBackward, Threads: workers, NumBlocks: nb})
				b.check(run{opts: opts, ks: []int{1, 2, 3, 6, 7}, tol: 1e-10}, randVec(rng, n))
			}
		}
	}
}

// TestFBParallelCombo: the combination on a 4-worker FB plan, both
// layouts, is Horner's.
func TestFBParallelCombo(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 80
	b := newBed(t, randomSymCSR(rng, n, 3))
	opts := layouts(Options{Engine: EngineForwardBackward, Threads: 4, NumBlocks: 8})
	b.check(run{e: entrySSpMV, opts: opts, coeffs: []float64{1, -2, 0, 3, 0.5, -1}, tol: 1e-10}, randVec(rng, n))
}

// TestFBParallelErrors: a 2-worker FB plan refuses a short vector and
// k = 0, its pipeline a coefficient count that is not k+1, and its
// colour schedule an ordering of another size.
func TestFBParallelErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	p := newBed(t, randomSymCSR(rng, 30, 2)).plan(Options{Engine: EngineForwardBackward, BtB: true, Threads: 2, NumBlocks: 4})
	if _, err := p.MPK(make([]float64, 29), 2); err == nil {
		t.Error("accepted short x0")
	}
	if _, err := p.MPK(make([]float64, 30), 0); err == nil {
		t.Error("accepted k=0")
	}
	tri := p.state.Load().tri
	if _, err := fbPowers(p.engine.(*fbEngine).sch, new(fbState), nil, tri, make([]float64, 30), 2, true, []float64{1}, nil); err == nil {
		t.Error("accepted short coeffs")
	}
	// Mismatched ordering size.
	badOrd := &reorder.ABMCResult{Perm: reorder.Perm{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		BlockPtr: []int32{0, 10}, ColorPtr: []int32{0, 1}, NumColors: 1}
	if _, err := newColorSchedule(tri, badOrd, p.pool); err == nil {
		t.Error("accepted mismatched ordering")
	}
}

// TestPlanAllConfigurations: a plan of every engine and option set
// reproduces Algorithm 1, repeats its bits on a second call (scratch
// reuse), and closes twice.
func TestPlanAllConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := 90
	b := newBed(t, randomSymCSR(rng, n, 3))
	opts := []Options{
		{Engine: EngineStandard},
		{Engine: EngineStandard, Threads: 3},
		{Engine: EngineForwardBackward},
		{Engine: EngineForwardBackward, BtB: true},
		{Engine: EngineForwardBackward, Threads: 2, NumBlocks: 8},
		{Engine: EngineForwardBackward, BtB: true, Threads: 3, NumBlocks: 8},
		{Engine: EngineForwardBackward, Threads: 2, NumBlocks: 16},
		{Engine: EngineForwardBackward, Threads: 4, NumBlocks: 6},
		DefaultOptions(2),
	}
	b.check(run{opts: opts, ks: []int{5}, tol: 1e-10, rerun: true}, randVec(rng, n))
	for _, p := range b.plans {
		p.Close()
		p.Close() // idempotent
	}
}

// TestPlanSSpMV: the combination on standard and FB plans, serial and
// pooled, is Horner's, and at degree 0 the scaled start vector.
func TestPlanSSpMV(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	n := 60
	b := newBed(t, randomSymCSR(rng, n, 3))
	x0 := randVec(rng, n)
	opts := []Options{
		{Engine: EngineStandard},
		{Engine: EngineStandard, Threads: 2},
		{Engine: EngineForwardBackward, BtB: true},
		DefaultOptions(3),
	}
	b.check(run{e: entrySSpMV, opts: opts, coeffs: []float64{0.5, 1, 0, -2, 1.5}, tol: 1e-10}, x0)
	b.check(run{e: entrySSpMV, opts: opts, coeffs: []float64{3}}, x0)
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

// symGSPlan is the serial FB plan of a, on which SymGS runs the serial
// schedule.
func symGSPlan(t *testing.T, a *sparse.CSR) *Plan { return newBed(t, a).plan(fbSerial) }

func TestSymGSSerialConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	n := 120
	a := spdMatrix(rng, n, 4)
	p := symGSPlan(t, a)
	xStar := randVec(rng, n)
	b := make([]float64, n)
	sparse.SpMV(a, xStar, b)
	x := make([]float64, n)
	prev := residualNorm(a, b, x)
	for s := 0; s < 6; s++ {
		if err := p.SymGS(b, x, 1); err != nil {
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
	p := symGSPlan(t, spdMatrix(rng, 60, 3))
	b := randVec(rng, 60)
	x1 := make([]float64, 60)
	x2 := make([]float64, 60)
	if err := p.SymGS(b, x1, 3); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if err := p.SymGS(b, x2, 1); err != nil {
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
	b := []float64{1, 1, 1, 1}
	x := []float64{9, 9, 9, 9}
	if err := symGSPlan(t, coo.ToCSR()).SymGS(b, x, 1); err != nil {
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
	p := symGSPlan(t, spdMatrix(rng, 10, 2))
	if err := p.SymGS(make([]float64, 9), make([]float64, 10), 1); err == nil {
		t.Error("accepted short b")
	}
	if err := p.SymGS(make([]float64, 10), make([]float64, 10), 0); err == nil {
		t.Error("accepted sweeps=0")
	}
}

// Parallel SYMGS over ABMC must reproduce the serial sweep on the
// permuted matrix exactly: same-colored blocks are independent, so the
// parallel update order is equivalent to the sequential one.
func TestSymGSParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, workers := range []int{1, 2, 4} {
		for trial := 0; trial < 3; trial++ {
			n := 30 + rng.Intn(100)
			bd := newBed(t, spdMatrix(rng, n, 3))
			opt := Options{Engine: EngineForwardBackward, Threads: workers, NumBlocks: 8}
			tw, perm := bd.twin(opt)
			b := randVec(rng, n)
			pb, xSer, xPar := make([]float64, n), make([]float64, n), make([]float64, n)
			perm.ApplyVec(b, pb)
			if err := tw.SymGS(pb, xSer, 2); err != nil {
				t.Fatal(err)
			}
			if err := bd.plan(opt).SymGS(b, xPar, 2); err != nil {
				t.Fatal(err)
			}
			perm.ApplyVec(sparse.CopyVec(xPar), xPar)
			if d := sparse.MaxAbsDiff(xSer, xPar); d > 1e-12 {
				t.Fatalf("workers=%d trial=%d: parallel SYMGS differs by %g", workers, trial, d)
			}
		}
	}
}

// TestSymGSParallelErrors: a 2-worker FB plan's SymGS refuses a short
// right-hand side and zero sweeps, and its colour schedule an ordering
// of another size.
func TestSymGSParallelErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	p := newBed(t, spdMatrix(rng, 20, 2)).plan(Options{Engine: EngineForwardBackward, Threads: 2, NumBlocks: 4})
	if err := p.SymGS(make([]float64, 19), make([]float64, 20), 1); err == nil {
		t.Error("accepted short b")
	}
	if err := p.SymGS(make([]float64, 20), make([]float64, 20), 0); err == nil {
		t.Error("accepted sweeps=0")
	}
	badOrd := &reorder.ABMCResult{Perm: reorder.Perm{0, 1, 2, 3, 4},
		BlockPtr: []int32{0, 5}, ColorPtr: []int32{0, 1}, NumColors: 1}
	if _, err := newColorSchedule(p.state.Load().tri, badOrd, p.pool); err == nil {
		t.Error("accepted mismatched ordering")
	}
}

// TestFBParallelRunCapture: MPKAll on an FB plan over 8 ABMC blocks, at
// 1 and 3 workers and both layouts, shows every iterate in order.
func TestFBParallelRunCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	n := 70
	b := newBed(t, randomSymCSR(rng, n, 3))
	for _, workers := range []int{1, 3} {
		opts := layouts(Options{Engine: EngineForwardBackward, Threads: workers, NumBlocks: 8})
		b.check(run{e: entryAll, opts: opts, ks: []int{1, 4, 5}, tol: 1e-10}, randVec(rng, n))
	}
}

// TestPlanMPKAll: MPKAll on standard and FB plans, serial and pooled,
// returns x0 and every iterate, and refuses a short start vector.
func TestPlanMPKAll(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := 60
	b := newBed(t, randomSymCSR(rng, n, 3))
	opts := []Options{
		{Engine: EngineStandard},
		{Engine: EngineStandard, Threads: 2},
		{Engine: EngineForwardBackward, BtB: true},
		{Engine: EngineForwardBackward},
		DefaultOptions(3),
	}
	b.check(run{e: entryAll, opts: opts, ks: []int{5}, tol: 1e-10}, randVec(rng, n))
	for _, opt := range opts {
		if _, err := b.plan(opt).MPKAll(make([]float64, n-1), 5); err == nil {
			t.Errorf("%+v: accepted short x0", opt)
		}
	}
}

// TestPlanSSpMVComplex: the complex combination on standard and FB
// plans, serial and pooled, is Horner's on its real and imaginary
// parts, and at degree 0 the scaled start vector; no coefficients and a
// short start vector are refused.
func TestPlanSSpMVComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := 50
	b := newBed(t, randomSymCSR(rng, n, 3))
	x0 := randVec(rng, n)
	opts := []Options{
		{Engine: EngineStandard},
		{Engine: EngineStandard, Threads: 2},
		{Engine: EngineForwardBackward, BtB: true},
		DefaultOptions(2),
	}
	coeffs := []complex128{1 + 2i, 0.5 - 1i, complex(0, 0.25), 3}
	b.check(run{e: entryComplex, opts: opts, ccoeffs: coeffs, tol: 1e-10}, x0)
	b.check(run{e: entryComplex, opts: opts, ccoeffs: []complex128{2 - 3i}}, x0)
	for _, opt := range opts {
		if _, _, err := b.plan(opt).SSpMVComplex(nil, x0); err == nil {
			t.Errorf("%+v: accepted empty coefficients", opt)
		}
		if _, _, err := b.plan(opt).SSpMVComplex(coeffs, x0[:n-1]); err == nil {
			t.Errorf("%+v: accepted short x0", opt)
		}
	}
}

// The batched invariant the whole feature rests on: a serial FB plan's
// MPKMulti must reproduce m independent MPK calls bit-for-bit-close, for
// both layouts, odd and even k, and every stripe width including the
// specialized m = 4 path.
func TestFBMPKSerialMultiMatchesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, m := range []int{1, 2, 3, 4, 5, 8} {
		for trial := 0; trial < 3; trial++ {
			n := 2 + rng.Intn(50)
			b := newBed(t, randomCSR(rng, n, 4))
			b.check(run{e: entryMulti, opts: layouts(fbSerial), ks: []int{1, 2, 3, 6, 7}, tol: 1e-12, oracle: self}, randBlock(rng, n, m)...)
		}
	}
}

// TestFBMPKSerialMultiCombo: a serial FB plan's MPKMulti and SSpMVMulti
// reproduce its MPK and SSpMV vector by vector, both layouts.
func TestFBMPKSerialMultiCombo(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range []int{2, 4, 5} {
		n := 3 + rng.Intn(40)
		b := newBed(t, randomCSR(rng, n, 3))
		xs := randBlock(rng, n, m)
		for _, k := range []int{1, 3, 4} {
			coeffs := randCoeffs(rng, k)
			b.check(run{e: entryMulti, opts: layouts(fbSerial), ks: []int{k}, tol: 1e-12, oracle: self}, xs...)
			b.check(run{e: entrySSpMVMulti, opts: layouts(fbSerial), coeffs: coeffs, tol: 1e-12, oracle: self}, xs...)
		}
	}
}

// TestFBMPKSerialMultiErrors: a serial FB plan's MPKMulti refuses an
// empty or ragged block and k = 0, and its batched pipeline a
// coefficient count that is not k+1.
func TestFBMPKSerialMultiErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	p := newBed(t, randomCSR(rng, 8, 2)).plan(Options{Engine: EngineForwardBackward, BtB: true})
	xs := randBlock(rng, 8, 2)
	if _, err := p.MPKMulti(nil, 2); err == nil {
		t.Error("accepted empty block")
	}
	if _, err := p.MPKMulti([][]float64{xs[0], xs[1][:5]}, 2); err == nil {
		t.Error("accepted ragged block")
	}
	if _, err := p.MPKMulti(xs, 0); err == nil {
		t.Error("accepted k=0")
	}
	tri := p.state.Load().tri
	if _, err := fbPowersMulti(serialSchedule(tri), new(fbState), nil, tri, xs, 3, true, []float64{1, 2}); err == nil {
		t.Error("accepted wrong-length coeffs")
	}
}

// TestFBParallelMultiMatchesSerialMulti: MPKMulti and SSpMVMulti on an
// FB plan over 16 ABMC blocks, at 1, 2 and 4 workers, reproduce the
// serial plan over the same ordering.
func TestFBParallelMultiMatchesSerialMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, workers := range []int{1, 2, 4} {
		for _, m := range []int{1, 2, 4, 5} {
			n := 30 + rng.Intn(90)
			b := newBed(t, randomSymCSR(rng, n, 3))
			opts := layouts(Options{Engine: EngineForwardBackward, Threads: workers, NumBlocks: 16})
			xs := randBlock(rng, n, m)
			for _, k := range []int{1, 2, 5} {
				coeffs := randCoeffs(rng, k)
				b.check(run{e: entryMulti, opts: opts, ks: []int{k}, tol: 1e-12, oracle: serial}, xs...)
				b.check(run{e: entrySSpMVMulti, opts: opts, coeffs: coeffs, tol: 1e-12, oracle: serial}, xs...)
			}
		}
	}
}

func TestPlanMPKMultiAllConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 70
	b := newBed(t, randomSymCSR(rng, n, 3))
	xs := randBlock(rng, n, 4)
	opts := []Options{
		{Engine: EngineStandard},
		{Engine: EngineStandard, Threads: 3},
		{Engine: EngineForwardBackward},
		{Engine: EngineForwardBackward, BtB: true},
		{Engine: EngineForwardBackward, BtB: true, Threads: 3},
		{Engine: EngineForwardBackward, Threads: 3},
	}
	// Against m independent reference runs on the raw matrix; the
	// combination against per-vector SSpMV on the same plan.
	b.check(run{e: entryMulti, opts: opts, ks: []int{4}, tol: 1e-11}, xs...)
	b.check(run{e: entrySSpMVMulti, opts: opts, coeffs: []float64{0.5, -1.25, 2, 0.75, -0.5}, tol: 1e-11, oracle: self}, xs...)
}

// TestFBParallelMultiRace exercises the batched parallel executor with
// 8 workers — more than the host's cores — so the race detector (run
// with -race) sees every barrier crossing and stripe-write interleaving
// of the color phases, including the oversubscribed yield path of the
// spin barrier.
func TestFBParallelMultiRace(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 400
	b := newBed(t, randomSymCSR(rng, n, 4))
	opts := layouts(Options{Engine: EngineForwardBackward, Threads: 8, NumBlocks: 32})
	xs := randBlock(rng, n, 4)
	b.check(run{e: entryMulti, opts: opts, ks: []int{5}, tol: 1e-12, oracle: serial}, xs...)
	b.check(run{e: entrySSpMVMulti, opts: opts, coeffs: []float64{1, -0.5, 0.25, -0.125, 0.0625, 0.03125}, tol: 1e-12, oracle: serial}, xs...)
}
