package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fbmpk/internal/matgen"
	"fbmpk/internal/sparse"
)

func TestTuneSampleSmallMatrixIsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomCSR(rng, 100, 3)
	if s := tuneSample(a); len(s) != 1 || s[0] != a {
		t.Fatal("small matrix should be sampled whole")
	}
}

func TestTuneSampleStripesAlignedAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomCSR(rng, 9001, 4)
	s1, s2 := tuneSample(a), tuneSample(a)
	if len(s1) != tuneStripes || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("%d stripes, or a second sample differs", len(s1))
	}
	// Every stripe is a well-formed structure-only CSR whose rows are
	// a's rows from an aligned offset on.
	for k, s := range s1 {
		if s.Rows != tuneStripeRows || s.Val != nil {
			t.Fatalf("stripe %d: %d rows, values %v", k, s.Rows, s.Val != nil)
		}
		s.Val = make([]float64, s.NNZ())
		if err := s.Validate(); err != nil {
			t.Fatalf("stripe %d: %v", k, err)
		}
		lo := k * a.Rows / tuneStripes
		lo -= lo % tuneAlign
		for i := 0; i < s.Rows; i++ {
			got, _ := s.Row(i)
			want, _ := a.Row(lo + i)
			if !slices.Equal(got, want) {
				t.Fatalf("stripe %d row %d is not row %d of a", k, i, lo+i)
			}
		}
	}
}

// TestAutotuneDeterministicVerdict: the block size is a function of the
// structure alone, so two calls and a matrix of other values of the same
// structure give the same size — on a suite stand-in (2) and on a
// matrix of dense 3 x 3 blocks (3).
func TestAutotuneDeterministicVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, in := range []struct {
		a    *sparse.CSR
		want int
	}{{suiteCSR(t, "pwtk", 0.01), 2}, {blockCSR(rng, 700, 3, 4), 3}} {
		for _, a := range []*sparse.CSR{in.a, in.a, scaledValues(in.a, 3)} {
			if got := DetectBSRBlock(a); got != in.want {
				t.Fatalf("%d rows: block size %d, want %d", a.Rows, got, in.want)
			}
		}
	}
}

// scaledValues returns a copy of a's structure with every value times f.
func scaledValues(a *sparse.CSR, f float64) *sparse.CSR {
	b := *a
	b.Val = make([]float64, len(a.Val))
	for i, v := range a.Val {
		b.Val[i] = v * f
	}
	return &b
}

// bsrBytes is DetectBSRBlock's model — 8 bytes a stored value, 4 a
// block index, 8 a block row — counted from what ToBSR stores at r x r
// over the stripes of sample: the oracle of its one-pass block count.
func bsrBytes(sample []*sparse.CSR, r int) (bytes int64) {
	for _, s := range sample {
		if s.Val == nil {
			c := *s
			c.Val = make([]float64, s.NNZ())
			s = &c
		}
		b := sparse.ToBSR(s, r, r)
		bytes += 8*int64(len(b.Val)) + 4*int64(len(b.ColIdx)) + 8*int64(b.BRows)
	}
	return bytes
}

// bestBlock is the size in {2, 3, 4} with the fewest bsrBytes, the
// smaller on a tie.
func bestBlock(sample []*sparse.CSR) int {
	best := 2
	for r := 3; r <= 4; r++ {
		if bsrBytes(sample, r) < bsrBytes(sample, best) {
			best = r
		}
	}
	return best
}

// TestAutotuneModelFavorsBSROnBlockMatrix checks the detector on a
// perfectly block-structured matrix: it picks 3, at which ToBSR stores
// no fill in a third of CSR's rows.
func TestAutotuneModelFavorsBSROnBlockMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := blockCSR(rng, 700, 3, 4)
	if r := DetectBSRBlock(a); r != 3 {
		t.Fatalf("block size %d, want 3", r)
	}
	if b := sparse.ToBSR(a, 3, 3); int64(len(b.Val)) != a.NNZ() || b.BRows != a.Rows/3 {
		t.Fatalf("bsr3 stores %d slots in %d block rows, want %d in %d", len(b.Val), b.BRows, a.NNZ(), a.Rows/3)
	}
}

// TestWithTunedDecisionSkipsSampling: nothing is timed or sampled to
// build a standard-engine plan, so two builds of it are one plan — the
// same bits, serial and on two workers — on a block bed, a random bed
// and G3_circuit's short rows.
func TestWithTunedDecisionSkipsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, a := range []*sparse.CSR{blockCSR(rng, 80, 3, 5), randomCSR(rng, 500, 6), suiteCSR(t, "G3_circuit", 0.002)} {
		x0 := randVec(rng, a.Rows)
		for _, threads := range []int{0, 2} {
			var ys [2][]float64
			for i := range ys {
				p, err := NewPlan(a, Options{Engine: EngineStandard, Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				ys[i], err = p.MPK(x0, 5)
				p.Close()
				if err != nil {
					t.Fatal(err)
				}
			}
			bitwiseEqual(t, fmt.Sprintf("two standard builds, %d threads", threads), ys[0], ys[1])
		}
	}
}

// TestAutotuneMatchesCSRResults drives a standard-engine plan on a block
// matrix against the CSR baseline: StandardMPK's bits, serial and on two
// workers.
func TestAutotuneMatchesCSRResults(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := blockCSR(rng, 120, 3, 3)
	x0 := randVec(rng, a.Rows)
	want, err := StandardMPK(a, x0, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{0, 2} {
		p, err := NewPlan(a, WithEngine(EngineStandard), WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.MPK(x0, 6)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, fmt.Sprintf("standard plan vs StandardMPK, %d threads", threads), got, want)
	}
}

// chainCSR builds a symmetric tridiagonal chain of n rows: n BFS
// levels, diameter n-1 — the deepest possible level structure.
func chainCSR(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i+1 < n {
			coo.Add(i, i+1, -1)
			coo.Add(i+1, i, -1)
		}
	}
	return coo.ToCSR()
}

// autoIsForcedFB holds an EngineAuto plan of a under opt, at 0, 1 and 2
// threads, to the forced forward-backward plan of the same options: it
// runs that engine, built no level schedule, and returns the forced
// plan's bits from MPK at power k.
func autoIsForcedFB(t *testing.T, name string, a *sparse.CSR, opt Options, k int) {
	t.Helper()
	x := randVec(rand.New(rand.NewSource(int64(k))), a.Rows)
	for _, threads := range []int{0, 1, 2} {
		opt.Threads = threads
		var got, want []float64
		for _, eng := range []Engine{EngineAuto, EngineForwardBackward} {
			opt.Engine = eng
			p, err := NewPlan(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st := p.Stats(); p.Engine() != EngineForwardBackward || st.NumLevels != 0 {
				t.Fatalf("%s t=%d: %v plan runs %v with %d levels", name, threads, eng, p.Engine(), st.NumLevels)
			}
			y, err := p.MPK(x, k)
			p.Close()
			if err != nil {
				t.Fatal(err)
			}
			got, want = want, y
		}
		bitwiseEqual(t, fmt.Sprintf("%s t=%d k=%d: Auto vs forced FB", name, threads, k), got, want)
	}
}

// TestAutotuneEngineModelOneSidedIsDeterministic: the deep chain under a
// 64-byte block budget, where level blocking's skewed passes would
// re-read k-1 extra levels each, is an FB plan as any other — the
// budget is a level-blocked knob, inert under Auto.
func TestAutotuneEngineModelOneSidedIsDeterministic(t *testing.T) {
	autoIsForcedFB(t, "chain/64B", chainCSR(2048), Options{BtB: true, LevelBlockBytes: 64}, 6)
}

// TestAutotuneEngineRecordsThreads: an Auto plan at any worker count is
// the forced FB plan at that count — serial, and on the ABMC colours of
// a two-worker pool — on a nonsymmetric random matrix, both layouts.
func TestAutotuneEngineRecordsThreads(t *testing.T) {
	a := randomCSR(rand.New(rand.NewSource(33)), 600, 4)
	for _, btb := range []bool{false, true} {
		autoIsForcedFB(t, fmt.Sprintf("random/btb=%v", btb), a, Options{BtB: btb}, 4)
	}
}

// suiteCSR generates a synthetic stand-in of one Table II matrix.
func suiteCSR(t *testing.T, name string, scale float64) *sparse.CSR {
	t.Helper()
	spec, err := matgen.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Generate(scale, 1)
}

// TestAutotuneWinnerWasMeasuredFaster: the size the detector picks from
// its one-pass block count is the one with the fewest modeled bytes by
// what ToBSR actually stores on the same sample, on structurally
// different suite matrices (dense blocky rows, short irregular rows,
// scattered graph rows).
func TestAutotuneWinnerWasMeasuredFaster(t *testing.T) {
	for _, name := range []string{"cant", "G3_circuit", "cage14", "pwtk"} {
		a := suiteCSR(t, name, 0.01)
		if got, want := DetectBSRBlock(a), bestBlock(tuneSample(a)); got != want {
			t.Errorf("%s: block size %d, ToBSR's bytes pick %d", name, got, want)
		}
	}
}

// TestAutotuneSuiteVerdicts holds DetectBSRBlock to the sizes it picks
// on the suite beds the benchmark and the old census used: audikw_1's
// 3-DOF nodes give 3, and pwtk, G3_circuit and cage14 give 2. The
// stand-ins here are small, and a stripe sample of their structure is
// what the detector counts at any scale.
func TestAutotuneSuiteVerdicts(t *testing.T) {
	for _, want := range []struct {
		name  string
		block int
	}{
		{"pwtk", 2},
		{"audikw_1", 3},
		{"G3_circuit", 2},
		{"cage14", 2},
	} {
		if got := DetectBSRBlock(suiteCSR(t, want.name, 0.02)); got != want.block {
			t.Errorf("%s: block size %d, want %d", want.name, got, want.block)
		}
	}
}

// TestAutotuneShortRowsStayCSR: on matrices of one to three entries a
// row the detector picks the size without fill — 2 for a diagonal and a
// tridiagonal, 3 for dense 3 x 3 diagonal blocks — both below and above
// tuneSampleRows, in agreement with ToBSR's bytes.
func TestAutotuneShortRowsStayCSR(t *testing.T) {
	beds := []struct {
		name string
		in   func(i, j int) bool
		want int
	}{
		{"diagonal", func(i, j int) bool { return i == j }, 2},
		{"tridiagonal", func(i, j int) bool { return i-j <= 1 && j-i <= 1 }, 2},
		{"3x3 blocks", func(i, j int) bool { return i/3 == j/3 }, 3},
	}
	for _, n := range []int{999, 9999} {
		for _, bed := range beds {
			coo := sparse.NewCOO(n, n, 3*n)
			for i := 0; i < n; i++ {
				for j := max(i-2, 0); j <= min(i+2, n-1); j++ {
					if bed.in(i, j) {
						coo.Add(i, j, 1)
					}
				}
			}
			a := coo.ToCSR()
			if got, oracle := DetectBSRBlock(a), bestBlock(tuneSample(a)); got != bed.want || oracle != bed.want {
				t.Errorf("n=%d %s: block size %d, ToBSR's bytes pick %d, want %d", n, bed.name, got, oracle, bed.want)
			}
		}
	}
}

// TestDetectBSRBlockSampled: on every suite generator the block size
// counted over tuneSample is the whole matrix's by ToBSR's bytes, so the
// benchmark's BSR kernel cell keeps the size it had.
func TestDetectBSRBlockSampled(t *testing.T) {
	for _, name := range matgen.Names() {
		a := suiteCSR(t, name, 0.01)
		if got, want := DetectBSRBlock(a), bestBlock([]*sparse.CSR{a}); got != want {
			t.Errorf("%s: sampled block size %d, whole-matrix %d", name, got, want)
		}
	}
}

// TestAutotuneEngineVerdictBackedByModel: nothing is modeled or timed
// to pick the engine, so the Auto plan is the forced FB plan at every
// depth, on beds whose level structure a traffic model would rank
// differently: a suite matrix, a deep banded grid, and the chain at the
// default block budget and at the 64-byte one.
func TestAutotuneEngineVerdictBackedByModel(t *testing.T) {
	banded := matgen.Grid(matgen.GridParams{
		NX: 4096, NY: 1, NZ: 1, DOF: 4, Radius: 1,
		KeepProb: 1, Symmetric: true, Seed: 1,
	})
	chain := chainCSR(2048)
	for _, in := range []struct {
		name       string
		a          *sparse.CSR
		blockBytes int
	}{
		{"G3_circuit", suiteCSR(t, "G3_circuit", 0.002), 0},
		{"banded", banded, 0},
		{"chain", chain, 0},
		{"chain/64B", chain, 64},
	} {
		for _, k := range []int{4, 6, 8} {
			autoIsForcedFB(t, in.name, in.a, Options{BtB: true, LevelBlockBytes: in.blockBytes}, k)
		}
	}
}
