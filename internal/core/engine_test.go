package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fbmpk/internal/matgen"
	"fbmpk/internal/parallel"
	"fbmpk/internal/sparse"
)

// blockCSR builds a matrix of dense bs x bs blocks: nb block rows,
// each coupled to itself and a few random block neighbors — the
// structure of an FEM matrix with bs degrees of freedom per node.
func blockCSR(rng *rand.Rand, nb, bs, neighbors int) *sparse.CSR {
	n := nb * bs
	coo := sparse.NewCOO(n, n, nb*(neighbors+1)*bs*bs)
	addBlock := func(bi, bj int) {
		for r := 0; r < bs; r++ {
			for c := 0; c < bs; c++ {
				v := rng.NormFloat64()
				if bi == bj && r == c {
					v = float64(bs) + rng.Float64()
				}
				coo.Add(bi*bs+r, bj*bs+c, v)
			}
		}
	}
	for bi := 0; bi < nb; bi++ {
		addBlock(bi, bi)
		for k := 0; k < neighbors; k++ {
			addBlock(bi, rng.Intn(nb))
		}
	}
	return coo.ToCSR()
}

// suiteCSR generates a synthetic stand-in of one Table II matrix.
func suiteCSR(t testing.TB, name string, scale float64, seed uint64) *sparse.CSR {
	t.Helper()
	spec, err := matgen.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Generate(scale, seed)
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

// bsrBed is one matrix DetectBSRBlock is held to.
type bsrBed struct {
	name   string
	a      *sparse.CSR
	want   int       // the size it must pick; 0: any
	oracle int       // the size bestBlock picks over 1: tuneSample's stripes, 2: the whole matrix; 0: none
	again  bool      // a second call, and other values of the same structure, give the same size
	noFill bool      // ToBSR at that size stores exactly a's entries, in Rows/size block rows
	x      []float64 // non-nil: BSR SpMV at that size agrees with CSR SpMV on x to 1e-12
}

// bsrBeds is the detector's bed table, by the test that holds it: each
// test's beds are built from that test's own seeds and handed to hold
// one at a time, so one matrix is live at once.
var bsrBeds = map[string]func(t *testing.T, hold func(bsrBed)){
	"TestAutotuneDeterministicVerdict": func(t *testing.T, hold func(bsrBed)) {
		rng := rand.New(rand.NewSource(23))
		hold(bsrBed{name: "pwtk", a: suiteCSR(t, "pwtk", 0.01, 1), want: 2, again: true})
		hold(bsrBed{name: "blocks3", a: blockCSR(rng, 700, 3, 4), want: 3, again: true})
	},
	"TestAutotuneModelFavorsBSROnBlockMatrix": func(t *testing.T, hold func(bsrBed)) {
		hold(bsrBed{name: "blocks3", a: blockCSR(rand.New(rand.NewSource(24)), 700, 3, 4), want: 3, noFill: true})
	},
	"TestAutotuneWinnerWasMeasuredFaster": func(t *testing.T, hold func(bsrBed)) {
		for _, name := range []string{"cant", "G3_circuit", "cage14", "pwtk"} {
			hold(bsrBed{name: name, a: suiteCSR(t, name, 0.01, 1), oracle: 1})
		}
	},
	"TestAutotuneSuiteVerdicts": func(t *testing.T, hold func(bsrBed)) {
		for name, want := range map[string]int{"pwtk": 2, "audikw_1": 3, "G3_circuit": 2, "cage14": 2} {
			hold(bsrBed{name: name, a: suiteCSR(t, name, 0.02, 1), want: want})
		}
	},
	"TestAutotuneShortRowsStayCSR": func(t *testing.T, hold func(bsrBed)) {
		for _, n := range []int{999, 9999} {
			for _, bed := range []struct {
				name string
				in   func(i, j int) bool
				want int
			}{
				{"diagonal", func(i, j int) bool { return i == j }, 2},
				{"tridiagonal", func(i, j int) bool { return i-j <= 1 && j-i <= 1 }, 2},
				{"3x3 blocks", func(i, j int) bool { return i/3 == j/3 }, 3},
			} {
				coo := sparse.NewCOO(n, n, 3*n)
				for i := 0; i < n; i++ {
					for j := max(i-2, 0); j <= min(i+2, n-1); j++ {
						if bed.in(i, j) {
							coo.Add(i, j, 1)
						}
					}
				}
				hold(bsrBed{name: fmt.Sprintf("n=%d %s", n, bed.name), a: coo.ToCSR(), want: bed.want, oracle: 1})
			}
		}
	},
	"TestDetectBSRBlockSampled": func(t *testing.T, hold func(bsrBed)) {
		for _, name := range matgen.Names() {
			hold(bsrBed{name: name, a: suiteCSR(t, name, 0.01, 1), oracle: 2})
		}
	},
	"TestDetectBSRBlock": func(t *testing.T, hold func(bsrBed)) {
		rng := rand.New(rand.NewSource(14))
		for _, bs := range []int{2, 3, 4} {
			hold(bsrBed{name: fmt.Sprint("blocks", bs), a: blockCSR(rng, 60, bs, 3), want: bs})
		}
	},
	"TestForcedBackendDefaults": func(t *testing.T, hold func(bsrBed)) {
		rng := rand.New(rand.NewSource(14))
		a := blockCSR(rng, 40, 3, 3)
		hold(bsrBed{name: "blocks3", a: a, want: 3, noFill: true, x: randVec(rng, a.Cols)})
	},
}

// checkBSRBeds holds DetectBSRBlock, on every bed of the calling test's
// row of bsrBeds, to what the bed asks: the size it wants, the size
// bestBlock picks by ToBSR's bytes, the same size again, and ToBSR at
// that size without fill and agreeing with CSR SpMV.
func checkBSRBeds(t *testing.T) {
	bsrBeds[t.Name()](t, func(bed bsrBed) {
		a, r := bed.a, DetectBSRBlock(bed.a)
		if bed.want != 0 && r != bed.want {
			t.Fatalf("%s: block size %d, want %d", bed.name, r, bed.want)
		}
		if sample := [][]*sparse.CSR{nil, tuneSample(a), {a}}[bed.oracle]; sample != nil && bestBlock(sample) != r {
			t.Fatalf("%s: block size %d, ToBSR's bytes pick %d (whole matrix: %v)", bed.name, r, bestBlock(sample), bed.oracle == 2)
		}
		for _, m := range map[bool][]*sparse.CSR{true: {a, cloneWithValues(a, func(_ int, v float64) float64 { return v * 3 })}}[bed.again] {
			if got := DetectBSRBlock(m); got != r {
				t.Fatalf("%s: block size %d, then %d", bed.name, r, got)
			}
		}
		if !bed.noFill && bed.x == nil {
			return
		}
		b := sparse.ToBSR(a, r, r)
		if bed.noFill && (int64(len(b.Val)) != a.NNZ() || b.BRows != a.Rows/r) {
			t.Fatalf("%s: bsr%d stores %d slots in %d block rows, want %d in %d", bed.name, r, len(b.Val), b.BRows, a.NNZ(), a.Rows/r)
		}
		if bed.x != nil {
			want, got := make([]float64, a.Rows), make([]float64, a.Rows)
			sparse.SpMV(a, bed.x, want)
			b.SpMV(bed.x, got)
			if d := sparse.RelMaxDiff(got, want); d > 1e-12 {
				t.Fatalf("%s: BSR SpMV differs from CSR by %g", bed.name, d)
			}
		}
	})
}

// TestAutotuneDeterministicVerdict holds the detector's size to the
// structure alone: a suite stand-in (2) and dense 3 x 3 blocks (3).
func TestAutotuneDeterministicVerdict(t *testing.T) { checkBSRBeds(t) }

// TestAutotuneModelFavorsBSROnBlockMatrix holds the detector to 3 on
// dense 3 x 3 blocks, where ToBSR stores no fill in a third of CSR's rows.
func TestAutotuneModelFavorsBSROnBlockMatrix(t *testing.T) { checkBSRBeds(t) }

// TestAutotuneWinnerWasMeasuredFaster holds the detector to ToBSR's
// bytes on structurally different suite matrices (dense blocky rows,
// short irregular rows, scattered graph rows).
func TestAutotuneWinnerWasMeasuredFaster(t *testing.T) { checkBSRBeds(t) }

// TestAutotuneSuiteVerdicts holds the sizes the detector picks on the
// suite beds the benchmark and the old census used: audikw_1's 3-DOF
// nodes give 3, pwtk, G3_circuit and cage14 give 2.
func TestAutotuneSuiteVerdicts(t *testing.T) { checkBSRBeds(t) }

// TestAutotuneShortRowsStayCSR holds the size without fill on one to
// three entries a row — 2 for a diagonal and a tridiagonal, 3 for dense
// 3 x 3 diagonal blocks — below and above tuneSampleRows.
func TestAutotuneShortRowsStayCSR(t *testing.T) { checkBSRBeds(t) }

// TestDetectBSRBlockSampled holds the sampled size to the whole
// matrix's on every suite generator, so the benchmark's BSR kernel cell
// keeps the size it had.
func TestDetectBSRBlockSampled(t *testing.T) { checkBSRBeds(t) }

// TestDetectBSRBlock holds the detector to the block size of dense
// 2 x 2, 3 x 3 and 4 x 4 blocks.
func TestDetectBSRBlock(t *testing.T) { checkBSRBeds(t) }

// TestForcedBackendDefaults holds BSR at the detected size — the
// conversion the benchmark times as sparse.bsr_spmv_ms — to the blocks
// without fill and to CSR SpMV.
func TestForcedBackendDefaults(t *testing.T) { checkBSRBeds(t) }

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

// TestWithTunedDecisionSkipsSampling: nothing is timed or sampled to
// build a standard-engine plan, so two builds of it are one plan —
// Algorithm 1's bits, serial and on two workers — on a block bed, a
// random bed and G3_circuit's short rows.
func TestWithTunedDecisionSkipsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, a := range []*sparse.CSR{blockCSR(rng, 80, 3, 5), randomCSR(rng, 500, 6), suiteCSR(t, "G3_circuit", 0.002, 1)} {
		x0 := randVec(rng, a.Rows)
		for range 2 {
			newBed(t, a).check(run{opts: []Options{std, {Engine: EngineStandard, Threads: 2}}, ks: []int{5}}, x0)
		}
	}
}

// TestAutotuneMatchesCSRResults holds a standard-engine plan on a block
// matrix to the CSR baseline's bits, serial and on two workers.
func TestAutotuneMatchesCSRResults(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	b := newBed(t, blockCSR(rng, 120, 3, 3))
	b.check(run{opts: []Options{std, {Engine: EngineStandard, Threads: 2}}, ks: []int{6}}, randVec(rng, b.a.Rows))
}

// chains builds count disjoint symmetric chains of length rows each:
// row r holds 2 + step*r on the diagonal and off beside its neighbours
// in the chain. One chain of n rows has n BFS levels, diameter n-1 —
// the deepest possible level structure.
func chains(count, length int, step, off float64) *sparse.CSR {
	coo := sparse.NewCOO(count*length, count*length, 3*count*length)
	for r := 0; r < count*length; r++ {
		coo.Add(r, r, 2+step*float64(r))
		if (r+1)%length != 0 {
			coo.AddSym(r, r+1, off)
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
	autoIsForcedFB(t, "chain/64B", chains(1, 2048, 0, -1), Options{BtB: true, LevelBlockBytes: 64}, 6)
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
	chain := chains(1, 2048, 0, -1)
	for _, in := range []struct {
		name       string
		a          *sparse.CSR
		blockBytes int
	}{
		{"G3_circuit", suiteCSR(t, "G3_circuit", 0.002, 1), 0},
		{"banded", banded, 0},
		{"chain", chain, 0},
		{"chain/64B", chain, 64},
	} {
		for _, k := range []int{4, 6, 8} {
			autoIsForcedFB(t, in.name, in.a, Options{BtB: true, LevelBlockBytes: in.blockBytes}, k)
		}
	}
}

// TestBackendKindStringParse: every engine round-trips through its name,
// and nothing else parses — not the storage formats (csr, bsr, sell),
// which no plan option selects, and not the empty name.
func TestBackendKindStringParse(t *testing.T) {
	for _, e := range []Engine{EngineStandard, EngineForwardBackward, EngineLevelBlocked, EngineAuto} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Fatalf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	for _, name := range []string{"csr", "bsr", "sell", ""} {
		if e, err := ParseEngine(name); err == nil {
			t.Fatalf("ParseEngine(%q) accepted as %v", name, e)
		}
	}
}

// TestBackendKindJSON: a standard-engine plan's metrics name its sweeps'
// phase by name in their JSON — "standard", the one phase the engine
// streams A in.
func TestBackendKindJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomCSR(rng, 200, 4)
	p, err := NewPlan(a, WithEngine(EngineStandard), WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.MPK(randVec(rng, a.Rows), 3); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(p.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Compute map[string]int64 `json:"phase_compute_ns"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Compute) != 1 || m.Compute["standard"] <= 0 {
		t.Fatalf("phases %v in %s, want standard alone", m.Compute, b)
	}
}

// TestCanonicalFoldsBackend: what each engine never reads folds to its
// zero value, so the standard engine's class is fixed by Engine and
// Threads — the layout, the block count and the level-block budget fold
// away.
func TestCanonicalFoldsBackend(t *testing.T) {
	for _, eng := range []Engine{EngineStandard, EngineForwardBackward, EngineLevelBlocked, EngineAuto} {
		got := Options{Engine: eng, BtB: true, NumBlocks: 7, LevelBlockBytes: 4096}.Canonical()
		want := Options{Engine: eng}
		switch eng {
		case EngineForwardBackward, EngineAuto:
			want = Options{Engine: EngineForwardBackward, BtB: true}
		case EngineLevelBlocked:
			want.LevelBlockBytes = 4096
		}
		if got != want {
			t.Errorf("%v: canonical %+v, want %+v", eng, got, want)
		}
	}
}

// TestForcedBackendsMatchCSR drives every standard-engine entry point
// (MPKMulti is the SpMM block path) serially and on 4 workers against
// the CSR oracles: MPK is Algorithm 1's bits (the same SpMVRange on
// every row), the block and the combination agree with the per-vector
// CSR results and Horner's rule to 1e-12.
func TestForcedBackendsMatchCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{23, 96} {
		b := newBed(t, randomCSR(rng, n, 4))
		x0 := randVec(rng, n)
		xs := [][]float64{randVec(rng, n), randVec(rng, n), randVec(rng, n)}
		opts := []Options{std, {Engine: EngineStandard, Threads: 4}}
		b.check(run{opts: opts, ks: []int{4}}, x0)
		b.check(run{e: entryMulti, opts: opts, ks: []int{4}, tol: 1e-12}, xs...)
		b.check(run{e: entrySSpMV, opts: opts, coeffs: []float64{0.5, -1.25, 2.0}, tol: 1e-12}, x0)
	}
}

// TestBackendPartitions checks the standard engine's row split: at
// every worker count its bounds are parallel.PartitionByPtr's over the
// execution-order matrix — monotone, covering [0, rows].
func TestBackendPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomCSR(rng, 103, 5)
	for _, threads := range []int{1, 2, 7, 16} {
		p, err := NewPlan(a, WithEngine(EngineStandard), WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		bounds := p.engine.(*stdEngine).bounds
		p.Close()
		if want := parallel.PartitionByPtr(a.Rows, threads, a.RowPtr); !slices.Equal(bounds, want) {
			t.Fatalf("threads=%d: bounds %v, PartitionByPtr %v", threads, bounds, want)
		}
		if len(bounds) != threads+1 || bounds[0] != 0 || bounds[threads] != a.Rows {
			t.Fatalf("threads=%d: bad bounds %v", threads, bounds)
		}
		for i := 1; i <= threads; i++ {
			if bounds[i] < bounds[i-1] {
				t.Fatalf("threads=%d: non-monotone bounds %v", threads, bounds)
			}
		}
	}
}

// TestPlanStatsBackend verifies what a plan's build record says it ran:
// a standard-engine plan on the caller's order prepares nothing, a
// forward-backward one splits — on two workers fused with its ABMC
// ordering, so no permutation stage of its own — and a level-blocked one
// records its levels.
func TestPlanStatsBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	holdStats(t, randomCSR(rng, 30, 3),
		statsCase{Options{Engine: EngineStandard}, func(s PlanStats, _ *Plan) bool {
			return s.ReorderTime == 0 && s.PermTime == 0 && s.SplitTime == 0 && s.NumColors == 0
		}},
		statsCase{Options{Engine: EngineForwardBackward, Threads: 2}, func(s PlanStats, _ *Plan) bool {
			return s.PermTime == 0 && s.SplitTime > 0 && s.NumColors > 0
		}},
		statsCase{Options{Engine: EngineForwardBackward}, func(s PlanStats, _ *Plan) bool { return s.SplitTime > 0 && s.NumLevels == 0 }},
		statsCase{Options{Engine: EngineLevelBlocked}, func(s PlanStats, _ *Plan) bool { return s.NumLevels > 0 && s.SplitTime == 0 }})
}

// TestFBPlanWithBackend verifies the storage each engine keeps: a
// forward-backward plan holds the split only, and a standard-engine plan
// on the caller's order runs on the caller's own CSR — no copy — while
// its SpMM block path agrees with the single-vector one.
func TestFBPlanWithBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	b := newBed(t, randomCSR(rng, 64, 4))
	if ep := b.plan(DefaultOptions(0)).state.Load(); ep.a != nil || ep.tri == nil {
		t.Fatalf("FB plan holds a=%v tri=%v, want the split only", ep.a, ep.tri)
	}
	if ep := b.plan(std).state.Load(); ep.a != b.a || ep.tri != nil {
		t.Fatalf("standard plan holds a copy (%v) or a split (%v)", ep.a != b.a, ep.tri != nil)
	}
	b.check(run{e: entryMulti, opts: []Options{std}, ks: []int{3}, tol: 1e-12, oracle: self}, randVec(rng, 64), randVec(rng, 64))
}
