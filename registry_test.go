package fbmpk

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
)

// entryPoint runs one public Plan operation and flattens its outputs
// to a single vector stream for bitwise comparison.
type entryPoint struct {
	name    string
	needsFB bool // SymGS requires the L+D+U split (FB engine only)
	run     func(p *Plan, x []float64) ([][]float64, error)
}

func registryEntryPoints() []entryPoint {
	const k = 3
	coeffs := []float64{1, 0.5, 0.25, 0.125}
	multi := func(x []float64) [][]float64 {
		xs := make([][]float64, 3)
		for j := range xs {
			xs[j] = make([]float64, len(x))
			for i := range x {
				xs[j][i] = x[i] + float64(j)
			}
		}
		return xs
	}
	one := func(y []float64, err error) ([][]float64, error) { return [][]float64{y}, err }
	ctx := context.Background()
	return []entryPoint{
		{"MPK", false, func(p *Plan, x []float64) ([][]float64, error) { return one(p.MPK(x, k)) }},
		{"MPKCtx", false, func(p *Plan, x []float64) ([][]float64, error) { return one(p.MPKCtx(ctx, x, k)) }},
		{"MPKAll", false, func(p *Plan, x []float64) ([][]float64, error) { return p.MPKAll(x, k) }},
		{"MPKAllCtx", false, func(p *Plan, x []float64) ([][]float64, error) { return p.MPKAllCtx(ctx, x, k) }},
		{"MPKMulti", false, func(p *Plan, x []float64) ([][]float64, error) { return p.MPKMulti(multi(x), k) }},
		{"MPKMultiCtx", false, func(p *Plan, x []float64) ([][]float64, error) { return p.MPKMultiCtx(ctx, multi(x), k) }},
		{"SSpMV", false, func(p *Plan, x []float64) ([][]float64, error) { return one(p.SSpMV(coeffs, x)) }},
		{"SSpMVCtx", false, func(p *Plan, x []float64) ([][]float64, error) { return one(p.SSpMVCtx(ctx, coeffs, x)) }},
		{"SSpMVMulti", false, func(p *Plan, x []float64) ([][]float64, error) { return p.SSpMVMulti(coeffs, multi(x)) }},
		{"SSpMVMultiCtx", false, func(p *Plan, x []float64) ([][]float64, error) { return p.SSpMVMultiCtx(ctx, coeffs, multi(x)) }},
		{"SymGS", true, func(p *Plan, x []float64) ([][]float64, error) {
			sol := make([]float64, len(x))
			err := p.SymGS(x, sol, 2)
			return [][]float64{sol}, err
		}},
		{"SymGSCtx", true, func(p *Plan, x []float64) ([][]float64, error) {
			sol := make([]float64, len(x))
			err := p.SymGSCtx(ctx, x, sol, 2)
			return [][]float64{sol}, err
		}},
	}
}

// TestRegistryCachedVsFreshDeterminism is the cache's correctness
// oath: for every public entry point, a plan served from the registry
// hit path produces bitwise-identical results to a freshly built plan
// with the same options, across serial/parallel and both engines.
// Anything less would make caching observable to numerical code.
func TestRegistryCachedVsFreshDeterminism(t *testing.T) {
	a, err := GenerateSuiteMatrix("cant", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	reg := NewRegistry(8)
	defer reg.Close()

	for _, threads := range []int{1, 4} {
		for _, engine := range []Engine{EngineStandard, EngineForwardBackward, EngineLevelBlocked} {
			opts := DefaultOptions(threads)
			opts.Engine = engine
			name := fmt.Sprintf("threads=%d/engine=%v", threads, engine)
			t.Run(name, func(t *testing.T) {
				fresh, err := NewPlan(a, opts)
				if err != nil {
					t.Fatalf("fresh NewPlan: %v", err)
				}
				defer fresh.Close()

				// Warm the cache, then acquire again: the second
				// Acquire must be a hit (no rebuild).
				warm, err := reg.Acquire(a, opts)
				if err != nil {
					t.Fatalf("warming Acquire: %v", err)
				}
				before := reg.Stats()
				cached, err := reg.Acquire(a, opts)
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

				for _, ep := range registryEntryPoints() {
					if ep.needsFB && engine != EngineForwardBackward {
						continue
					}
					want, err := ep.run(fresh, x)
					if err != nil {
						t.Fatalf("%s on fresh plan: %v", ep.name, err)
					}
					got, err := ep.run(cached, x)
					if err != nil {
						t.Fatalf("%s on cached plan: %v", ep.name, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: output count %d vs %d", ep.name, len(got), len(want))
					}
					for v := range want {
						for i := range want[v] {
							if got[v][i] != want[v][i] {
								t.Fatalf("%s: output %d diverges at [%d]: cached %g fresh %g",
									ep.name, v, i, got[v][i], want[v][i])
							}
						}
					}
				}
			})
		}
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
