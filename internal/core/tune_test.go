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

// TestAutotuneDeterministicVerdict: the verdict is a function of the
// structure alone, so two builds give an identical decision, census and
// prices included — on a suite stand-in the census keeps on CSR and on
// a matrix it moves to BSR — and other values of the same structure
// change nothing.
func TestAutotuneDeterministicVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, in := range []struct {
		a    *sparse.CSR
		want BackendKind
	}{{suiteCSR(t, "pwtk", 0.01), BackendCSR}, {blockCSR(rng, 700, 3, 4), BackendBSR}} {
		var decs []*TuneDecision
		for _, a := range []*sparse.CSR{in.a, in.a, scaledValues(in.a, 3)} {
			p, err := NewPlan(a, WithEngine(EngineStandard), WithBackend(BackendAuto))
			if err != nil {
				t.Fatal(err)
			}
			decs = append(decs, p.Stats().Tune)
			p.Close()
		}
		if decs[0] == nil || decs[0].Backend != in.want || len(decs[0].Candidates) != 2 {
			t.Fatalf("verdict %+v, want %v over two candidates", decs[0], in.want)
		}
		for _, d := range decs[1:] {
			if !reflect.DeepEqual(d, decs[0]) {
				t.Fatalf("two builds decided %+v and %+v", decs[0], d)
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

// TestAutotuneModelFavorsBSROnBlockMatrix checks the census on a
// perfectly block-structured matrix: its BSR candidate is the 3x3 one,
// stores no fill in a third of CSR's rows, and prices below CSR.
func TestAutotuneModelFavorsBSROnBlockMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := blockCSR(rng, 700, 3, 4)
	d := autotune(a)
	csr, bsr := d.Candidates[0], d.Candidates[1]
	if csr.Backend != BackendCSR || csr.Stored != a.NNZ() || csr.Rows != a.Rows {
		t.Fatalf("csr census %+v of a %d-row matrix with %d entries", csr, a.Rows, a.NNZ())
	}
	if bsr.Backend != BackendBSR || bsr.Block != 3 || bsr.Stored != a.NNZ() || bsr.Rows != a.Rows/3 {
		t.Fatalf("bsr census %+v, want 3x3 blocks with no fill", bsr)
	}
	if bsr.PriceNs >= csr.PriceNs {
		t.Fatalf("bsr3 priced %.0f ns, not below csr's %.0f on dense 3x3 blocks", bsr.PriceNs, csr.PriceNs)
	}
}

// TestWithTunedDecisionSkipsSampling: with nothing timed there is no
// verdict to replay — an Auto plan is bitwise the forced plan of the
// backend it reports, serial and on two workers, on beds whose census
// picks CSR and BSR, the two formats it chooses between.
func TestWithTunedDecisionSkipsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	picks := map[BackendKind]bool{}
	for _, a := range []*sparse.CSR{blockCSR(rng, 80, 3, 5), randomCSR(rng, 500, 6), suiteCSR(t, "G3_circuit", 0.002)} {
		x0 := randVec(rng, a.Rows)
		for _, threads := range []int{0, 2} {
			auto, err := NewPlan(a, Options{Engine: EngineStandard, Backend: BackendAuto, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			defer auto.Close()
			kind, err := ParseBackend(auto.Backend())
			if err != nil {
				t.Fatal(err)
			}
			forced, err := NewPlan(a, Options{Engine: EngineStandard, Backend: kind, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			defer forced.Close()
			if auto.Stats().Tune == nil || forced.Stats().Tune != nil {
				t.Fatalf("verdicts: auto %v, forced %v", auto.Stats().Tune, forced.Stats().Tune)
			}
			got, err := auto.MPK(x0, 5)
			if err != nil {
				t.Fatal(err)
			}
			want, err := forced.MPK(x0, 5)
			if err != nil {
				t.Fatal(err)
			}
			bitwiseEqual(t, fmt.Sprintf("Auto (%v) vs forced, %d threads", kind, threads), got, want)
			picks[kind] = true
		}
	}
	if !picks[BackendCSR] || !picks[BackendBSR] {
		t.Fatalf("the beds picked only %v", picks)
	}
}

// TestAutotuneMatchesCSRResults drives a BackendAuto plan against the
// CSR baseline: whatever format the census picked, results must agree
// to 1e-12.
func TestAutotuneMatchesCSRResults(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := blockCSR(rng, 120, 3, 3)
	x0 := randVec(rng, a.Rows)
	base, err := NewPlan(a, WithEngine(EngineStandard))
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	auto, err := NewPlan(a, WithEngine(EngineStandard), WithBackend(BackendAuto))
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	want, err := base.MPK(x0, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := auto.MPK(x0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.RelMaxDiff(got, want); d > 1e-12 {
		t.Fatalf("auto (%s) vs csr diff %g", auto.Backend(), d)
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
// runs that engine, built no level schedule, spent nothing on tuning,
// and returns the forced plan's bits from MPK at power k.
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
			if st := p.Stats(); p.Engine() != EngineForwardBackward || st.NumLevels != 0 || st.TuneTime != 0 {
				t.Fatalf("%s t=%d: %v plan runs %v with %d levels and %v of tuning", name, threads, eng, p.Engine(), st.NumLevels, st.TuneTime)
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

// TestAutotuneWinnerWasMeasuredFaster: the census may only leave CSR
// for a candidate priced at tuneMargin of CSR's price or below — one
// winner, the decision's, and a non-CSR one at most 0.90 x CSR — on
// structurally different suite matrices (dense blocky rows, short
// irregular rows, scattered graph rows).
func TestAutotuneWinnerWasMeasuredFaster(t *testing.T) {
	for _, name := range []string{"cant", "G3_circuit", "cage14", "pwtk"} {
		d := autotune(suiteCSR(t, name, 0.01))
		var winner *TuneCandidate
		for i := range d.Candidates {
			if c := &d.Candidates[i]; c.Winner {
				if winner != nil {
					t.Fatalf("%s: two winners in %+v", name, d.Candidates)
				}
				winner = c
			}
		}
		csr := d.Candidates[0]
		if winner == nil || csr.Backend != BackendCSR || csr.PriceNs <= 0 {
			t.Fatalf("%s: no winner or no CSR price in %+v", name, d.Candidates)
		}
		if winner.Backend != d.Backend || winner.Block != d.Block {
			t.Fatalf("%s: verdict %v/%d but winner row %+v", name, d.Backend, d.Block, *winner)
		}
		if winner.Backend != BackendCSR && winner.PriceNs > tuneMargin*csr.PriceNs {
			t.Fatalf("%s: selected %v priced %.0f ns, above %.2f x CSR's %.0f ns",
				name, winner.Backend, winner.PriceNs, tuneMargin, csr.PriceNs)
		}
	}
}

// TestAutotuneSuiteVerdicts holds the census, priced by the committed
// table, to the formats that were fastest over ten rounds of
// BenchmarkStandardBackends on the five out-of-cache beds of DESIGN.md
// §10 (G3_circuit x4 and x0.05 share one structure), except G3_circuit:
// its 4.8 entries a row are below the profiled rows, so it stays on CSR.
// The stand-ins here are small, and a stripe sample of their structure
// is what the census counts at any scale.
func TestAutotuneSuiteVerdicts(t *testing.T) {
	for _, want := range []struct {
		name    string
		backend BackendKind
		block   int
	}{
		{"pwtk", BackendCSR, 0},
		{"audikw_1", BackendBSR, 3},
		{"G3_circuit", BackendCSR, 0},
		{"cage14", BackendCSR, 0},
	} {
		if d := autotune(suiteCSR(t, want.name, 0.02)); d.Backend != want.backend || d.Block != want.block {
			t.Errorf("%s: verdict %v/%d, want %v/%d, from %+v", want.name, d.Backend, d.Block, want.backend, want.block, d.Candidates)
		}
	}
}

// TestAutotuneShortRowsStayCSR: a sample with fewer entries a row than
// the profile's shortest bed is not priced, so it stays on CSR however
// the table's intercepts would price it — a diagonal, a tridiagonal and
// a dense 3 x 3 block-diagonal matrix, both below and above
// tuneSampleRows. The block bed is the guard's witness: with 3 entries a
// row the table prices it to BSR 3 at ≈ 0.69 x CSR, so it fails if the
// guard goes.
func TestAutotuneShortRowsStayCSR(t *testing.T) {
	beds := []struct {
		name string
		in   func(i, j int) bool
	}{
		{"diagonal", func(i, j int) bool { return i == j }},
		{"tridiagonal", func(i, j int) bool { return i-j <= 1 && j-i <= 1 }},
		{"3x3 blocks", func(i, j int) bool { return i/3 == j/3 }},
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
			d := autotune(coo.ToCSR())
			if d.Backend != BackendCSR || !d.Candidates[0].Winner {
				t.Errorf("n=%d %s: verdict %v/%d from %+v, want csr", n, bed.name, d.Backend, d.Block, d.Candidates)
			}
			if bsr := d.Candidates[1]; bed.name == "3x3 blocks" && (bsr.Block != 3 || bsr.PriceNs > tuneMargin*d.Candidates[0].PriceNs) {
				t.Errorf("n=%d: BSR %d priced %.0f ns, not below CSR's %.0f: the bed no longer tests the guard", n, bsr.Block, bsr.PriceNs, d.Candidates[0].PriceNs)
			}
		}
	}
}

// TestDetectBSRBlockSampled: on every suite generator the block size
// counted over tuneSample is the whole matrix's, so a forced BSR plan
// (and the benchmark's BSR kernel cell) keeps the size it had.
func TestDetectBSRBlockSampled(t *testing.T) {
	for _, name := range matgen.Names() {
		a := suiteCSR(t, name, 0.01)
		if got, want := DetectBSRBlock(a), bsrCandidate([]*sparse.CSR{a}).Block; got != want {
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
