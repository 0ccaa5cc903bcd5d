package core

import (
	"fmt"
	"math/rand"
	"testing"

	"fbmpk/internal/matgen"
	"fbmpk/internal/sparse"
)

// irregularCSR builds a matrix the model rejects every non-CSR format
// for: a heavy row per sigma window blows up SELL padding, and
// scattered singleton entries blow up BSR fill.
func irregularCSR(rng *rand.Rand, n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 4*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1.0+rng.Float64())
		if i%64 == 0 {
			for k := 0; k < 60; k++ {
				coo.Add(i, rng.Intn(n), rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

func TestTuneSampleSmallMatrixIsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomCSR(rng, 100, 3)
	if s := tuneSample(a); s != a {
		t.Fatal("small matrix should be sampled whole")
	}
}

func TestTuneSampleStripesAlignedAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomCSR(rng, 9001, 4)
	s1 := tuneSample(a)
	s2 := tuneSample(a)
	if s1.Rows != s2.Rows || s1.NNZ() != s2.NNZ() {
		t.Fatalf("sample shape differs across runs: %d/%d vs %d/%d", s1.Rows, s1.NNZ(), s2.Rows, s2.NNZ())
	}
	for i := range s1.RowPtr {
		if s1.RowPtr[i] != s2.RowPtr[i] {
			t.Fatalf("RowPtr differs at %d", i)
		}
	}
	if s1.Rows > tuneStripes*tuneStripeRows {
		t.Fatalf("sample too large: %d rows", s1.Rows)
	}
	// The sampled rows must reproduce their originals: check stripe 0
	// starts at an aligned offset with identical row contents.
	cols0, vals0 := s1.Row(0)
	found := false
	for lo := 0; lo < a.Rows; lo += tuneAlign {
		c, v := a.Row(lo)
		if len(c) == len(cols0) {
			same := true
			for i := range c {
				if c[i] != cols0[i] || v[i] != vals0[i] {
					same = false
					break
				}
			}
			if same {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("sample row 0 does not match any aligned source row")
	}
}

func TestTuneVectorDeterministic(t *testing.T) {
	a := tuneVector(257, 42)
	b := tuneVector(257, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe vector differs at %d", i)
		}
		if a[i] <= -1 || a[i] >= 1 {
			t.Fatalf("probe value out of range: %g", a[i])
		}
	}
	c := tuneVector(257, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the same probe vector")
	}
}

// TestAutotuneDeterministicVerdict runs the tuner twice on a matrix
// whose model prunes every non-CSR candidate, so the verdict cannot
// depend on measured timings: both runs must choose CSR with
// identical candidate tables (modulo the measured-time fields).
func TestAutotuneDeterministicVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := irregularCSR(rng, 2000)
	d1 := autotune(a)
	d2 := autotune(a)
	if d1.Backend != BackendCSR || d2.Backend != BackendCSR {
		t.Fatalf("verdicts: %v / %v, want csr both times", d1.Backend, d2.Backend)
	}
	if d1.SampleRows != d2.SampleRows || len(d1.Candidates) != len(d2.Candidates) {
		t.Fatalf("candidate tables differ in shape")
	}
	for i := range d1.Candidates {
		c1, c2 := d1.Candidates[i], d2.Candidates[i]
		if c1.Backend != c2.Backend || c1.Chunk != c2.Chunk || c1.Sigma != c2.Sigma ||
			c1.Block != c2.Block || c1.Pruned != c2.Pruned || c1.Winner != c2.Winner ||
			c1.ModelBytesPerNNZ != c2.ModelBytesPerNNZ {
			t.Fatalf("candidate %d differs: %+v vs %+v", i, c1, c2)
		}
	}
	for i, c := range d1.Candidates {
		if c.Backend != BackendCSR && !c.Pruned {
			t.Fatalf("candidate %d (%v) was measured; the model should prune it", i, c.Backend)
		}
	}
	if d1.Samples != tuneReps+1 {
		t.Fatalf("samples = %d, want only the CSR baseline %d", d1.Samples, tuneReps+1)
	}
}

// TestAutotuneModelFavorsBSROnBlockMatrix checks the model side of the
// verdict on a perfectly block-structured matrix: the 3x3 BSR
// candidate must model below CSR and be measured (not pruned). The
// timing winner is left to the margin rule — not asserted, since CI
// machines vary.
func TestAutotuneModelFavorsBSROnBlockMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := blockCSR(rng, 700, 3, 4)
	d := autotune(a)
	var csrModel, bsr3Model float64
	var bsr3Pruned = true
	for _, c := range d.Candidates {
		if c.Backend == BackendCSR {
			csrModel = c.ModelBytesPerNNZ
		}
		if c.Backend == BackendBSR && c.Block == 3 {
			bsr3Model, bsr3Pruned = c.ModelBytesPerNNZ, c.Pruned
		}
	}
	if bsr3Model == 0 || bsr3Model >= csrModel {
		t.Fatalf("bsr3 model %.2f should beat csr %.2f on dense 3x3 blocks", bsr3Model, csrModel)
	}
	if bsr3Pruned {
		t.Fatal("bsr3 candidate was pruned despite the better model")
	}
}

// TestWithTunedDecisionSkipsSampling is the cached-verdict path: a
// plan built with an injected decision reports zero samples and
// produces bitwise-identical results to a plan built fresh with the
// same decision.
func TestWithTunedDecisionSkipsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := blockCSR(rng, 80, 3, 3)
	x0 := randVec(rng, a.Rows)

	fresh, err := NewPlan(a, WithEngine(EngineStandard), WithBackend(BackendAuto))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	ft := fresh.Stats().Tune
	if ft == nil || ft.FromCache || ft.Samples == 0 {
		t.Fatalf("fresh plan tune stats: %+v", ft)
	}

	cached, err := NewPlan(a, WithEngine(EngineStandard), WithBackend(BackendAuto), WithTunedDecision(*ft))
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	ct := cached.Stats().Tune
	if ct == nil || !ct.FromCache || ct.Samples != 0 {
		t.Fatalf("cached plan tune stats: %+v", ct)
	}
	if ct.Backend != ft.Backend || ct.Chunk != ft.Chunk || ct.Sigma != ft.Sigma || ct.Block != ft.Block {
		t.Fatalf("cached decision %+v != fresh %+v", ct, ft)
	}

	want, err := fresh.MPK(x0, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.MPK(x0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cached-vs-fresh result differs at %d: %g != %g", i, got[i], want[i])
		}
	}
}

// TestAutotuneMatchesCSRResults drives a BackendAuto plan against the
// CSR baseline: whatever format the tuner picked, results must agree
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
	x := tuneVector(a.Rows, uint64(k))
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

// TestAutotuneWinnerWasMeasuredFaster: the tuner may only leave CSR
// for a format its own micro-benchmark saw winning — a non-CSR winner
// was measured (not pruned) and sampled strictly below the CSR
// baseline — on two structurally different suite matrices (dense
// blocky rows, short irregular rows).
func TestAutotuneWinnerWasMeasuredFaster(t *testing.T) {
	for _, name := range []string{"cant", "G3_circuit"} {
		d := autotune(suiteCSR(t, name, 0.01))
		var winner, csr *TuneCandidate
		for i := range d.Candidates {
			c := &d.Candidates[i]
			if c.Winner {
				if winner != nil {
					t.Fatalf("%s: two winners in %+v", name, d.Candidates)
				}
				winner = c
			}
			if c.Backend == BackendCSR {
				csr = c
			}
		}
		if winner == nil || csr == nil || csr.SampleNs <= 0 {
			t.Fatalf("%s: no winner or unmeasured CSR baseline in %+v", name, d.Candidates)
		}
		if winner.Backend != d.Backend {
			t.Fatalf("%s: verdict %v but winner row %v", name, d.Backend, winner.Backend)
		}
		if winner.Backend == BackendCSR {
			continue
		}
		if winner.Pruned || winner.SampleNs <= 0 {
			t.Fatalf("%s: selected %v without measuring it: %+v", name, winner.Backend, *winner)
		}
		if winner.SampleNs >= csr.SampleNs {
			t.Fatalf("%s: selected %v sampled at %d ns, not faster than CSR's %d ns",
				name, winner.Backend, winner.SampleNs, csr.SampleNs)
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
