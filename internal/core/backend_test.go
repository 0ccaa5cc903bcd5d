package core

import (
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

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

// TestBackendKindStringParse: every kind round-trips through its name,
// and nothing else parses — not sell (SELL-C-sigma is a format the
// benchmark times, not a backend), and not the empty name an unnamed
// slot of backendNames would hold.
func TestBackendKindStringParse(t *testing.T) {
	for _, k := range []BackendKind{BackendCSR, BackendAuto, BackendBSR} {
		got, err := ParseBackend(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseBackend(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, name := range []string{"ellpack", "sell", ""} {
		if k, err := ParseBackend(name); err == nil {
			t.Fatalf("ParseBackend(%q) accepted as %v", name, k)
		}
	}
}

func TestBackendKindJSON(t *testing.T) {
	b, err := json.Marshal(BackendBSR)
	if err != nil || string(b) != `"bsr"` {
		t.Fatalf("Marshal = %s, %v", b, err)
	}
	// A verdict carries the kind by name.
	b, err = json.Marshal(TuneDecision{Backend: BackendBSR, Block: 3})
	if err != nil || !strings.Contains(string(b), `"backend":"bsr"`) {
		t.Fatalf("Marshal verdict = %s, %v", b, err)
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomCSR(rng, 20, 3)
	for _, k := range []BackendKind{numBackends, 99} {
		if _, err := NewPlan(a, Options{Engine: EngineStandard, Backend: k}); !errors.Is(err, ErrBadBackend) {
			t.Fatalf("%v: err = %v, want ErrBadBackend", k, err)
		}
	}
}

// TestCanonicalFoldsBackend: Backend is a property of the standard
// engine exactly as BtB is of the forward-backward one — Canonical keeps
// it there and folds it to the zero value everywhere else, so no other
// engine can be asked to build or tune one.
func TestCanonicalFoldsBackend(t *testing.T) {
	for _, bk := range []BackendKind{BackendCSR, BackendAuto, BackendBSR} {
		for _, eng := range []Engine{EngineStandard, EngineForwardBackward, EngineLevelBlocked, EngineAuto} {
			want := BackendCSR
			if eng == EngineStandard {
				want = bk
			}
			if got := (Options{Engine: eng, Backend: bk}).Canonical().Backend; got != want {
				t.Errorf("%v + %v: canonical backend %v, want %v", eng, bk, got, want)
			}
		}
	}
}

// TestForcedBackendsMatchCSR drives every standard-engine entry point
// (MPKMulti is the SpMM block path) through a forced BSR plan and a
// BackendAuto one and compares against the CSR baseline plan at 1e-12.
func TestForcedBackendsMatchCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{23, 96} {
		a := randomCSR(rng, n, 4)
		x0 := randVec(rng, n)
		xs := [][]float64{randVec(rng, n), randVec(rng, n), randVec(rng, n)}
		coeffs := []float64{0.5, -1.25, 2.0}
		k := 4

		type result struct {
			xk    []float64
			batch [][]float64
			combo []float64
		}
		runAll := func(opts ...Option) result {
			t.Helper()
			p, err := NewPlan(a, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			var r result
			if r.xk, err = p.MPK(x0, k); err != nil {
				t.Fatal(err)
			}
			if r.batch, err = p.MPKMulti(xs, k); err != nil {
				t.Fatal(err)
			}
			if r.combo, err = p.SSpMV(coeffs, x0); err != nil {
				t.Fatal(err)
			}
			return r
		}
		for _, threads := range []int{0, 4} {
			base := runAll(WithEngine(EngineStandard), WithThreads(threads))
			for _, bk := range []Option{
				WithBackend(BackendBSR),
				WithBackend(BackendAuto),
			} {
				got := runAll(WithEngine(EngineStandard), WithThreads(threads), bk)
				if d := sparse.RelMaxDiff(got.xk, base.xk); d > 1e-12 {
					t.Fatalf("n=%d threads=%d: MPK diff %g", n, threads, d)
				}
				for j := range base.batch {
					if d := sparse.RelMaxDiff(got.batch[j], base.batch[j]); d > 1e-12 {
						t.Fatalf("n=%d threads=%d: MPKMulti[%d] diff %g", n, threads, j, d)
					}
				}
				if d := sparse.RelMaxDiff(got.combo, base.combo); d > 1e-12 {
					t.Fatalf("n=%d threads=%d: SSpMV diff %g", n, threads, d)
				}
			}
		}
	}
}

// TestBackendPartitions checks the alignment contract: partition
// bounds are monotone, cover [0, rows], and land on the format's
// storage granularity.
func TestBackendPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomCSR(rng, 103, 5)
	backends := []execBackend{
		csrBackend{a: a},
		&bsrBackend{b: sparse.ToBSR(a, 3, 3)},
	}
	for _, be := range backends {
		for _, parts := range []int{1, 2, 7, 16} {
			bounds := be.partition(parts)
			if len(bounds) != parts+1 || bounds[0] != 0 || bounds[parts] != a.Rows {
				t.Fatalf("%v parts=%d: bad bounds %v", be.kind(), parts, bounds)
			}
			for i := 1; i <= parts; i++ {
				if bounds[i] < bounds[i-1] {
					t.Fatalf("%v parts=%d: non-monotone bounds %v", be.kind(), parts, bounds)
				}
				if bounds[i] == a.Rows {
					continue
				}
				if be.kind() == BackendBSR && bounds[i]%3 != 0 {
					t.Fatalf("bsr bound %d not block-aligned", bounds[i])
				}
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

// TestForcedBackendDefaults: with the block-size option gone, a forced
// BSR plan converts at the block size the structure suggests.
func TestForcedBackendDefaults(t *testing.T) {
	a := blockCSR(rand.New(rand.NewSource(14)), 40, 3, 3)
	p, err := NewPlan(a, WithEngine(EngineStandard), WithBackend(BackendBSR))
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if b := p.state.Load().be.(*bsrBackend).b; b.R != 3 || b.R != DetectBSRBlock(a) {
		t.Fatalf("forced BSR built at R=%d, want the detected 3", b.R)
	}
}

// TestPlanStatsBackend verifies that what a plan's kernels execute on
// surfaces through PlanStats and Plan.Backend (the exposition's backend
// label reads PlanStats): the forced backend of a standard-engine plan
// and the census's pick of an Auto one (CSR on these 3-entry rows), the
// split of a forward-backward one (whatever Backend it was asked for),
// the raw CSR of a level-blocked one.
func TestPlanStatsBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randomCSR(rng, 30, 3)
	cases := []struct {
		eng  Engine
		opt  Option
		want string
	}{
		{EngineStandard, WithBackend(BackendCSR), "csr"},
		{EngineStandard, WithBackend(BackendAuto), "csr"},
		{EngineStandard, WithBackend(BackendBSR), "bsr"},
		{EngineForwardBackward, WithBackend(BackendCSR), "split"},
		{EngineForwardBackward, WithBackend(BackendBSR), "split"},
		{EngineLevelBlocked, WithBackend(BackendBSR), "csr"},
	}
	for _, tc := range cases {
		p, err := NewPlan(a, WithEngine(tc.eng), tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if p.Backend() != tc.want || p.Stats().Backend != tc.want {
			t.Fatalf("backend = %q / %q, want %q", p.Backend(), p.Stats().Backend, tc.want)
		}
		p.Close()
	}
}

// TestFBPlanWithBackend verifies that Backend is the standard engine's
// alone: a forward-backward plan asked for a non-CSR backend builds
// none and is bitwise the default plan, while the SpMM block path the
// option does reach — MPKMulti on a standard-engine plan — agrees with
// the CSR baseline.
func TestFBPlanWithBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randomCSR(rng, 64, 4)
	x0 := randVec(rng, 64)
	base, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	p, err := NewPlan(a, WithBackend(BackendBSR))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if ep := p.state.Load(); ep.be != nil || ep.a != nil || ep.tri == nil {
		t.Fatalf("FB plan with BackendBSR holds be=%v a=%v tri=%v, want the split only", ep.be, ep.a, ep.tri)
	}
	want, err := base.MPK(x0, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.MPK(x0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FB result differs at %d: %g != %g", i, got[i], want[i])
		}
	}
	xs := [][]float64{randVec(rng, 64), randVec(rng, 64)}
	std, err := NewPlan(a, WithEngine(EngineStandard))
	if err != nil {
		t.Fatal(err)
	}
	defer std.Close()
	bsr, err := NewPlan(a, WithEngine(EngineStandard), WithBackend(BackendBSR))
	if err != nil {
		t.Fatal(err)
	}
	defer bsr.Close()
	wb, err := std.MPKMulti(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := bsr.MPKMulti(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for j := range wb {
		if d := sparse.RelMaxDiff(gb[j], wb[j]); d > 1e-12 {
			t.Fatalf("MPKMulti[%d] diff %g", j, d)
		}
	}
}
