package fbmpk

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRegistryCachedVsFreshDeterminism is the cache's correctness
// oath: for every public entry point, a plan served from the registry
// hit path produces bitwise-identical results to a freshly built plan
// with the same options, across serial/parallel and both engines.
// Anything less would make caching observable to numerical code.
func TestRegistryCachedVsFreshDeterminism(t *testing.T) {
	b := zoo(t, "golden")[0]
	reg := NewRegistry(8)
	defer reg.Close()

	for _, c := range goldenRows() {
		if c.opt.Engine == EngineForwardBackward && !c.opt.BtB {
			continue // one layout: the paths name threads and engine
		}
		opts := c.opt
		t.Run(fmt.Sprintf("threads=%d/engine=%v", max(1, opts.Threads), opts.Engine), func(t *testing.T) {
			// Warm the cache, then acquire again: the second
			// Acquire must be a hit (no rebuild).
			warm, err := reg.Acquire(b.a, opts)
			if err != nil {
				t.Fatalf("warming Acquire: %v", err)
			}
			before := reg.Stats()
			cached, err := reg.Acquire(b.a, opts)
			if err != nil {
				t.Fatalf("hit Acquire: %v", err)
			}
			defer reg.Release(warm)
			defer reg.Release(cached)
			after := reg.Stats()
			if after.Hits != before.Hits+1 || after.Builds != before.Builds {
				t.Fatalf("second Acquire was not a pure hit: %+v -> %+v", before, after)
			}
			if cached.Stats().BuildTime <= 0 {
				t.Error("cached plan lost its build-time stats")
			}
			x := &cell{T: t, b: b, c: c, g: groups(nil)[0], p: cached, memo: map[string]vecs{}}
			x.bitwise(c, "a fresh plan of")
			twinned(x)
		})
	}
}

// TestRegistryDebugHandler scrapes /metrics from a registry-backed
// debug surface: the per-plan families must include the build-stage
// breakdown, and the cache counter families must reflect the
// registry's hit/miss traffic.
func TestRegistryDebugHandler(t *testing.T) {
	a, err := GenerateSuiteMatrix("cant", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(4)
	defer reg.Close()
	p1, err := reg.Acquire(a, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Release(p1)
	p2, err := reg.Acquire(a, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Release(p2)
	if _, err := p1.MPK(onesVec(a.Rows), 3); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(RegistryDebugHandler(reg, p1))
	defer srv.Close()
	body, _ := getBody(t, srv, "/metrics")
	for _, want := range []string{
		`fbmpk_cache_hits_total{registry="registry"} 1`,
		`fbmpk_cache_misses_total{registry="registry"} 1`,
		`fbmpk_cache_builds_total{registry="registry"} 1`,
		`fbmpk_cache_entries{registry="registry"} 1`,
		`fbmpk_cache_live{registry="registry"} 1`,
		`fbmpk_cache_hit_rate{registry="registry"} 0.5`,
		`fbmpk_build_seconds{plan="plan0",backend="split",stage="total"}`,
		`fbmpk_build_seconds{plan="plan0",backend="split",stage="split"}`,
		`fbmpk_calls_total{plan="plan0",backend="split",op="mpk"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestPlanFingerprintPublic smoke-tests the exported fingerprint
// helper: stable across calls, spelled-differently-but-equivalent
// options agree, and the key correlates with registry identity.
func TestPlanFingerprintPublic(t *testing.T) {
	a, err := GenerateSuiteMatrix("pwtk", 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	k1 := PlanFingerprint(a, WithThreads(4))
	k2 := PlanFingerprint(a, DefaultOptions(4))
	if k1 != k2 {
		t.Error("WithThreads(4) and DefaultOptions(4) fingerprint differently")
	}
	if k1 == (PlanKey{}) {
		t.Error("zero-valued key")
	}
	if s := k1.String(); len(s) != 64 {
		t.Errorf("hex key length %d, want 64", len(s))
	}
	if PlanFingerprint(a, WithThreads(2)) == k1 {
		t.Error("distinct thread counts share a key")
	}
}

// TestRegistryEngineVerdictReplay mirrors the backend verdict-cache
// test for the engine arbitration: the first EngineAuto Acquire runs
// the arbitration (fresh verdict, nonzero samples on a measurable
// matrix); an Acquire of the same structure under the same options —
// other values — replays it with zero samples and builds exactly the
// forced plan of the engine it names; and any other options arbitrate
// afresh: another thread count, and another block budget, under which
// a verdict once replayed with the other budget's block count.
func TestRegistryEngineVerdictReplay(t *testing.T) {
	a, err := GenerateSuiteMatrix("G3_circuit", 0.002, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(8)
	defer reg.Close()
	auto := []Option{WithEngine(EngineAuto), WithBtB(true)}

	p1, err := reg.Acquire(a, auto...)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Release(p1)
	t1 := p1.Stats().EngineTune
	if t1 == nil {
		t.Fatal("EngineAuto plan carries no engine verdict")
	}
	if t1.FromCache || t1.Samples == 0 {
		t.Fatalf("first Acquire should have arbitrated fresh with samples: %+v", t1)
	}
	if t1.K != DefaultTuneK || t1.Threads != 0 {
		t.Fatalf("serial arbitration recorded k=%d threads=%d: %+v", t1.K, t1.Threads, t1)
	}

	// Same structure and options, other values: a distinct plan whose
	// verdict replays from the registry with zero samples and identical
	// fields.
	b := *a
	b.Val = make([]float64, len(a.Val))
	for i, v := range a.Val {
		b.Val[i] = 2*v - 0.5
	}
	before := reg.Stats()
	p2, err := reg.Acquire(&b, auto...)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Release(p2)
	after := reg.Stats()
	if after.Builds != before.Builds+1 || after.TuneHits != before.TuneHits+1 {
		t.Fatalf("other values should build a plan on the replayed verdict: %+v -> %+v", before, after)
	}
	t2 := p2.Stats().EngineTune
	if t2 == nil || !t2.FromCache || t2.Samples != 0 {
		t.Fatalf("replayed verdict should be zero-sample: %+v", t2)
	}
	if t2.Engine != t1.Engine || t2.K != t1.K ||
		t2.FBModelBytes != t1.FBModelBytes || t2.LBModelBytes != t1.LBModelBytes ||
		t2.NumLevels != t1.NumLevels || t2.NumBlocks != t1.NumBlocks {
		t.Fatalf("replayed verdict %+v != fresh %+v", t2, t1)
	}
	if p2.Engine() != t1.Engine {
		t.Fatalf("replayed verdict resolved a different engine: %v vs %v", p2.Engine(), t1.Engine)
	}

	// Fresh and replayed verdicts both build the forced plan of their
	// engine under the same options, bit for bit.
	x0 := vec(a.Rows, 41)
	for _, c := range []struct {
		p *Plan
		a *Matrix
	}{{p1, a}, {p2, &b}} {
		forced, err := NewPlan(c.a, append(auto, WithEngine(c.p.Engine()))...)
		if err != nil {
			t.Fatal(err)
		}
		defer forced.Close()
		got, err := c.p.MPK(x0, 4)
		if err != nil {
			t.Fatal(err)
		}
		want, err := forced.MPK(x0, 4)
		if err != nil {
			t.Fatal(err)
		}
		compare(t, fmt.Sprintf("%v plan vs the forced plan", c.p.Engine()), vecs{got}, vecs{want}, nil)
	}

	// Other options arbitrate afresh. A parallel plan times the
	// candidates on its own pool, and its verdict records the count.
	before = reg.Stats()
	p3, err := reg.Acquire(a, append(auto, WithThreads(4))...)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Release(p3)
	after = reg.Stats()
	if after.TuneHits != before.TuneHits {
		t.Fatalf("serial verdict replayed for a parallel plan: %+v -> %+v", before, after)
	}
	t3 := p3.Stats().EngineTune
	if t3 == nil || t3.FromCache || t3.Threads != 4 {
		t.Fatalf("parallel plan should have arbitrated fresh at 4 threads: %+v", t3)
	}

	// The reproduction: a verdict taken under 256-byte blocks must not
	// serve the default budget. The default-budget plan models the
	// schedule a fresh default-budget plan models.
	reg2 := NewRegistry(8)
	defer reg2.Close()
	tiny, err := reg2.Acquire(a, append(auto, WithLevelBlockBytes(256))...)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Release(tiny)
	def, err := reg2.Acquire(a, auto...)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Release(def)
	fresh, err := NewPlan(a, auto...)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	td, tf := def.Stats().EngineTune, fresh.Stats().EngineTune
	if td == nil || td.FromCache || td.NumBlocks != tf.NumBlocks || td.LBModelBytes != tf.LBModelBytes {
		t.Fatalf("default-budget plan took verdict %+v, a fresh one %+v (256-byte verdict %+v)", td, tf, tiny.Stats().EngineTune)
	}
}

// TestRegistryForcedEngineSweep: forced-engine plans never consult or
// populate the engine verdict cache — only EngineAuto arbitrates.
func TestRegistryForcedEngineSweep(t *testing.T) {
	a, err := GenerateSuiteMatrix("cant", 0.002, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(8)
	defer reg.Close()

	for _, eng := range []Engine{EngineForwardBackward, EngineStandard, EngineLevelBlocked} {
		p, err := reg.Acquire(a, WithEngine(eng))
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		if p.Engine() != eng {
			t.Fatalf("forced engine %v resolved to %v", eng, p.Engine())
		}
		if tune := p.Stats().EngineTune; tune != nil {
			t.Fatalf("forced engine %v ran the arbitration: %+v", eng, tune)
		}
		if err := reg.Release(p); err != nil {
			t.Fatal(err)
		}
	}
	if s := reg.Stats(); s.TuneHits != 0 {
		t.Fatalf("forced-engine sweep touched the verdict cache: %+v", s)
	}
}
