package core

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

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
// zero value, so the standard engine's class is fixed by Engine,
// Threads, ForceABMC (with NumBlocks under it) and SelfCheck — the
// layout and the level-block budget fold away.
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
// the CSR oracles: MPK is StandardMPK's bits (the same SpMVRange on
// every row), the block and the combination agree with the per-vector
// CSR results to 1e-12.
func TestForcedBackendsMatchCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{23, 96} {
		a := randomCSR(rng, n, 4)
		x0 := randVec(rng, n)
		xs := [][]float64{randVec(rng, n), randVec(rng, n), randVec(rng, n)}
		coeffs := []float64{0.5, -1.25, 2.0}
		const k = 4
		want, err := StandardMPK(a, x0, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		combo := make([]float64, n)
		_, err = StandardMPK(a, x0, len(coeffs)-1, func(power int, x []float64) { sparse.AXPY(coeffs[power], x, combo) })
		if err != nil {
			t.Fatal(err)
		}
		sparse.AXPY(coeffs[0], x0, combo)
		for _, threads := range []int{0, 4} {
			p, err := NewPlan(a, WithEngine(EngineStandard), WithThreads(threads))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			got, err := p.MPK(x0, k)
			if err != nil {
				t.Fatal(err)
			}
			bitwiseEqual(t, "MPK vs StandardMPK", got, want)
			batch, err := p.MPKMulti(xs, k)
			if err != nil {
				t.Fatal(err)
			}
			for j, x := range xs {
				wj, err := StandardMPK(a, x, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := sparse.RelMaxDiff(batch[j], wj); d > 1e-12 {
					t.Fatalf("n=%d threads=%d: MPKMulti[%d] diff %g", n, threads, j, d)
				}
			}
			gc, err := p.SSpMV(coeffs, x0)
			if err != nil {
				t.Fatal(err)
			}
			if d := sparse.RelMaxDiff(gc, combo); d > 1e-12 {
				t.Fatalf("n=%d threads=%d: SSpMV diff %g", n, threads, d)
			}
		}
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

func TestDetectBSRBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, bs := range []int{2, 3, 4} {
		a := blockCSR(rng, 60, bs, 3)
		if got := DetectBSRBlock(a); got != bs {
			t.Fatalf("block size %d: detected %d", bs, got)
		}
	}
}

// TestForcedBackendDefaults: BSR at the size DetectBSRBlock picks — the
// conversion the benchmark times as sparse.bsr_spmv_ms — stores the
// blocks without fill and agrees with CSR SpMV to rounding.
func TestForcedBackendDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := blockCSR(rng, 40, 3, 3)
	r := DetectBSRBlock(a)
	b := sparse.ToBSR(a, r, r)
	if r != 3 || int64(len(b.Val)) != a.NNZ() {
		t.Fatalf("BSR at R=%d stores %d slots for %d entries, want the 3 x 3 blocks", r, len(b.Val), a.NNZ())
	}
	x := randVec(rng, a.Cols)
	want, got := make([]float64, a.Rows), make([]float64, a.Rows)
	sparse.SpMV(a, x, want)
	b.SpMV(x, got)
	if d := sparse.RelMaxDiff(got, want); d > 1e-12 {
		t.Fatalf("BSR SpMV differs from CSR by %g", d)
	}
}

// TestPlanStatsBackend verifies what a plan's build record says it ran:
// a standard-engine plan on the caller's order prepares nothing, one
// under ForceABMC orders and permutes, a forward-backward one splits,
// and a level-blocked one records its levels.
func TestPlanStatsBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randomCSR(rng, 30, 3)
	cases := []struct {
		opt   Options
		check func(PlanStats) bool
	}{
		{Options{Engine: EngineStandard}, func(s PlanStats) bool {
			return s.ReorderTime == 0 && s.PermTime == 0 && s.SplitTime == 0 && s.NumColors == 0
		}},
		{Options{Engine: EngineStandard, ForceABMC: true}, func(s PlanStats) bool {
			return s.PermTime > 0 && s.SplitTime == 0 && s.NumColors > 0
		}},
		{Options{Engine: EngineForwardBackward}, func(s PlanStats) bool { return s.SplitTime > 0 && s.NumLevels == 0 }},
		{Options{Engine: EngineLevelBlocked}, func(s PlanStats) bool { return s.NumLevels > 0 && s.SplitTime == 0 }},
	}
	for _, tc := range cases {
		p, err := NewPlan(a, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
		if st := p.Stats(); !tc.check(st) || st.BuildTime <= 0 {
			t.Fatalf("%+v: stats %+v", tc.opt, st)
		}
	}
}

// TestFBPlanWithBackend verifies the storage each engine keeps: a
// forward-backward plan holds the split only, and a standard-engine plan
// on the caller's order runs on the caller's own CSR — no copy — while
// its SpMM block path agrees with the single-vector one.
func TestFBPlanWithBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randomCSR(rng, 64, 4)
	fb, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if ep := fb.state.Load(); ep.a != nil || ep.tri == nil {
		t.Fatalf("FB plan holds a=%v tri=%v, want the split only", ep.a, ep.tri)
	}
	std, err := NewPlan(a, WithEngine(EngineStandard))
	if err != nil {
		t.Fatal(err)
	}
	defer std.Close()
	if ep := std.state.Load(); ep.a != a || ep.tri != nil {
		t.Fatalf("standard plan holds a copy (%v) or a split (%v)", ep.a != a, ep.tri != nil)
	}
	xs := [][]float64{randVec(rng, 64), randVec(rng, 64)}
	gb, err := std.MPKMulti(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for j, x := range xs {
		wj, err := std.MPK(x, 3)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.RelMaxDiff(gb[j], wj); d > 1e-12 {
			t.Fatalf("MPKMulti[%d] diff %g", j, d)
		}
	}
}
