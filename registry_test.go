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

// TestRegistryEngineVerdictReplay: EngineAuto is the forward-backward
// engine under another spelling, so there is no engine verdict to
// cache or replay — an Auto Acquire followed by an FB Acquire of the
// same matrix is one build and one hit on the same plan, which carries
// no backend verdict.
func TestRegistryEngineVerdictReplay(t *testing.T) {
	a, err := GenerateSuiteMatrix("G3_circuit", 0.002, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(8)
	defer reg.Close()

	auto, err := reg.Acquire(a, WithEngine(EngineAuto), WithBtB(true))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Release(auto)
	fb, err := reg.Acquire(a, WithEngine(EngineForwardBackward), WithBtB(true))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Release(fb)
	s := reg.Stats()
	if fb != auto || s.Builds != 1 || s.Hits != 1 {
		t.Fatalf("Auto then FB Acquire: same plan %v, %d builds and %d hits, want one build and one hit", fb == auto, s.Builds, s.Hits)
	}
	if tune := auto.Stats().Tune; tune != nil {
		t.Fatalf("an Auto plan ran the backend census: %+v", tune)
	}
	if auto.Engine() != EngineForwardBackward {
		t.Fatalf("Auto plan runs %v", auto.Engine())
	}
}

// TestRegistryForcedEngineSweep: forced-engine plans resolve to the
// engine they name and carry no backend verdict — only a
// standard-engine BackendAuto plan runs the census.
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
		if tune := p.Stats().Tune; tune != nil {
			t.Fatalf("forced engine %v ran the census: %+v", eng, tune)
		}
		if err := reg.Release(p); err != nil {
			t.Fatal(err)
		}
	}
}
