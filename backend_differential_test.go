package fbmpk

// Differential backend tests: every execution backend (forced SELL,
// forced BSR, autotuned) must reproduce the CSR baseline of the same
// engine configuration across serial, parallel, and multi-RHS entry
// points. Backends only change the storage format of the standard
// engine's kernels — the in-row summation order — so the comparison is
// against a plan with identical options and the CSR backend, at the
// tight backendTol rather than the looser cross-engine diffTol; under
// the forward-backward engine, which builds no backend, the option must
// change nothing at all. These deterministic sweeps mirror
// FuzzDifferentialBackend in fuzz_test.go, and ci.sh re-runs them under
// -race.

import (
	"fmt"
	"math/rand"
	"testing"

	"fbmpk/internal/core"
)

// backendTol bounds forced-backend deviation from the CSR backend of
// the *same* plan configuration: only the per-row accumulation order
// differs, so the tolerance is tighter than the cross-engine diffTol.
const backendTol = 1e-12

// backendEngineCases enumerates the engine configurations each backend
// is differentially tested under: standard serial/parallel (with and
// without ABMC reordering, so the SELL sigma sort composes with the
// block ordering; MPKMulti there is the SpMM block path) and
// forward-backward serial/parallel, where Backend is canonically inert
// — the variant builds the very plan the base is, and backendCaseTol
// holds it to bitwise agreement.
func backendEngineCases(threads int) []engineCase {
	cases := []engineCase{
		{name: "std/serial", opt: Options{Engine: EngineStandard}},
		{name: "std/parallel", opt: Options{Engine: EngineStandard, Threads: threads}},
		{name: "std/parallel/abmc", opt: Options{Engine: EngineStandard, Threads: threads, ForceABMC: true, NumBlocks: 8}},
		{name: "fb/serial/btb", opt: Options{Engine: EngineForwardBackward, BtB: true}},
		{name: "fb/parallel/sep", opt: Options{Engine: EngineForwardBackward, Threads: threads, NumBlocks: 8}},
	}
	for i := range cases {
		cases[i].opt.SelfCheck = true
	}
	return cases
}

// backendCaseTol is the deviation a backend variant of case c may show
// from c's CSR plan: summation-order noise under the standard engine,
// none under an engine that has no backend to vary.
func backendCaseTol(c engineCase) float64 {
	if c.opt.Engine != EngineStandard {
		return 0
	}
	return backendTol
}

// backendVariant is one non-default backend under test: a Backend
// value, and for the formats no option can force any more — SELL beyond
// the default chunk, BSR at a block size the structure does not suggest
// — the tuner verdict a BackendAuto plan replays to get there, which is
// how the registry builds such a plan when the tuner picked one.
type backendVariant struct {
	name    string
	backend BackendKind
	replay  *TuneDecision
}

func backendVariants() []backendVariant {
	return []backendVariant{
		{name: "sell", backend: BackendSELL},
		{name: "sell/c16", backend: BackendAuto, replay: &TuneDecision{Backend: BackendSELL, Chunk: 16, Sigma: 512}},
		{name: "bsr", backend: BackendBSR},
		{name: "bsr/b2", backend: BackendAuto, replay: &TuneDecision{Backend: BackendBSR, Block: 2}},
		{name: "auto", backend: BackendAuto},
	}
}

// withBackend overlays a backend variant onto an engine configuration.
func withBackend(base Options, v backendVariant) []Option {
	base.Backend = v.backend
	if v.replay == nil {
		return []Option{base}
	}
	return []Option{base, core.WithTunedDecision(*v.replay)}
}

// TestBackendDifferentialEngines checks MPK (both sweep parities),
// SSpMV, and MPKAll of every backend x engine combination against the
// CSR backend of the same engine configuration.
func TestBackendDifferentialEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cases := backendEngineCases(4)
	for _, n := range []int{0, 1, 3, 17, 40} {
		for kind := 0; kind < 4; kind++ {
			a := diffMatrix(rng, n, kind)
			x0 := diffVec(rng, n)
			coeffs := diffVec(rng, 5) // degree 4

			for _, c := range cases {
				base, err := NewPlan(a, c.opt)
				if err != nil {
					t.Fatal(err)
				}
				want4, err := base.MPK(x0, 4)
				if err != nil {
					t.Fatal(err)
				}
				want5, err := base.MPK(x0, 5)
				if err != nil {
					t.Fatal(err)
				}
				wantCombo, err := base.SSpMV(coeffs, x0)
				if err != nil {
					t.Fatal(err)
				}
				wantAll, err := base.MPKAll(x0, 4)
				if err != nil {
					t.Fatal(err)
				}
				base.Close()

				tol := backendCaseTol(c)
				for _, v := range backendVariants() {
					t.Run(fmt.Sprintf("n%d/kind%d/%s/%s", n, kind, c.name, v.name), func(t *testing.T) {
						p, err := NewPlan(a, withBackend(c.opt, v)...)
						if err != nil {
							t.Fatal(err)
						}
						defer p.Close()

						got, err := p.MPK(x0, 4)
						if err != nil {
							t.Fatal(err)
						}
						if d := relMaxDiff(t, got, want4); d > tol {
							t.Errorf("MPK k=4: deviation %g", d)
						}
						got, err = p.MPK(x0, 5)
						if err != nil {
							t.Fatal(err)
						}
						if d := relMaxDiff(t, got, want5); d > tol {
							t.Errorf("MPK k=5: deviation %g", d)
						}
						combo, err := p.SSpMV(coeffs, x0)
						if err != nil {
							t.Fatal(err)
						}
						if d := relMaxDiff(t, combo, wantCombo); d > tol {
							t.Errorf("SSpMV: deviation %g", d)
						}
						all, err := p.MPKAll(x0, 4)
						if err != nil {
							t.Fatal(err)
						}
						for pw := 0; pw <= 4; pw++ {
							if d := relMaxDiff(t, all[pw], wantAll[pw]); d > tol {
								t.Errorf("MPKAll power %d: deviation %g", pw, d)
							}
						}
					})
				}
			}
		}
	}
}

// TestBackendDifferentialMulti checks the batched (multi-RHS) paths —
// including the register-blocked m=4 SpMM kernels — of every backend
// against the CSR backend of the same engine configuration.
func TestBackendDifferentialMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := backendEngineCases(4)
	for _, n := range []int{0, 1, 17, 33} {
		for kind := 0; kind < 4; kind++ {
			a := diffMatrix(rng, n, kind)
			coeffs := diffVec(rng, 4) // degree 3
			for _, m := range []int{1, 4} {
				xs := make([][]float64, m)
				for j := range xs {
					xs[j] = diffVec(rng, n)
				}
				for _, c := range cases {
					base, err := NewPlan(a, c.opt)
					if err != nil {
						t.Fatal(err)
					}
					wantK, err := base.MPKMulti(xs, 3)
					if err != nil {
						t.Fatal(err)
					}
					wantC, err := base.SSpMVMulti(coeffs, xs)
					if err != nil {
						t.Fatal(err)
					}
					base.Close()

					tol := backendCaseTol(c)
					for _, v := range backendVariants() {
						t.Run(fmt.Sprintf("n%d/kind%d/m%d/%s/%s", n, kind, m, c.name, v.name), func(t *testing.T) {
							p, err := NewPlan(a, withBackend(c.opt, v)...)
							if err != nil {
								t.Fatal(err)
							}
							defer p.Close()
							gotK, err := p.MPKMulti(xs, 3)
							if err != nil {
								t.Fatal(err)
							}
							gotC, err := p.SSpMVMulti(coeffs, xs)
							if err != nil {
								t.Fatal(err)
							}
							for j := 0; j < m; j++ {
								if d := relMaxDiff(t, gotK[j], wantK[j]); d > tol {
									t.Errorf("MPKMulti col %d: deviation %g", j, d)
								}
								if d := relMaxDiff(t, gotC[j], wantC[j]); d > tol {
									t.Errorf("SSpMVMulti col %d: deviation %g", j, d)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestBackendDifferentialBaseline anchors the backend comparisons to
// the absolute reference: forced backends must also match the serial
// standard baseline (Algorithm 1) within the cross-engine tolerance,
// so a backend cannot hide behind a broken CSR plan.
func TestBackendDifferentialBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{2, 17, 40} {
		for kind := 0; kind < 4; kind++ {
			a := diffMatrix(rng, n, kind)
			x0 := diffVec(rng, n)
			want, err := StandardMPK(a, x0, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range backendVariants() {
				t.Run(fmt.Sprintf("n%d/kind%d/%s", n, kind, v.name), func(t *testing.T) {
					p, err := NewPlan(a, withBackend(Options{Engine: EngineStandard, SelfCheck: true}, v)...)
					if err != nil {
						t.Fatal(err)
					}
					defer p.Close()
					if want := v.backend.String(); want != "auto" && p.Backend() != want {
						t.Fatalf("plan executes on %q, want the forced %q", p.Backend(), want)
					}
					if v.replay != nil && p.Backend() != v.replay.Backend.String() {
						t.Fatalf("plan executes on %q, want the replayed %q", p.Backend(), v.replay.Backend)
					}
					got, err := p.MPK(x0, 5)
					if err != nil {
						t.Fatal(err)
					}
					if d := relMaxDiff(t, got, want); d > diffTol {
						t.Errorf("deviation %g from serial baseline", d)
					}
				})
			}
		}
	}
}
