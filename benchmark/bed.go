package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"time"

	"fbmpk"
	"fbmpk/internal/core"
	"fbmpk/internal/serve"
)

// relTol is the agreement every engine must reach with the serial
// Algorithm 1 baseline: reordered summation moves the last bits, never
// more (the repo's own differential suites hold 1e-12 at small k).
const relTol = 1e-10

// run carries what every leg reports into: the samples, the count of
// operations attempted and failed (error, refusal or wrong answer),
// and the first few failure messages.
type run struct {
	samples   sampleSet
	attempted int
	failed    int
	failures  []string
	shed      int // HTTP 429 replies
}

func newRun() *run { return &run{samples: sampleSet{}} }

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted op and fails it if err is set.
func (r *run) check(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

// bedNeeds selects which legs a bed is set up for.
type bedNeeds struct{ lib, registry, http bool }

// bed is one matrix with everything the legs need around it, built by
// one timed set-up: the registry its cold builds went through, seeded
// vectors with their reference results, and (for the HTTP leg) an
// in-process daemon with the matrix uploaded.
type bed struct {
	matrix  string
	scale   float64
	seed    uint64 // generator seed of a
	threads int
	opts    []fbmpk.Option // WithThreads(threads): registry and HTTP legs

	a      *fbmpk.Matrix
	xs     [][]float64
	coeffs []float64
	reg    *fbmpk.Registry
	// built holds the references to the FB and level-blocked plans of
	// a, as its cold builds returned them.
	built []*fbmpk.Plan

	// Library leg: serial plans and Algorithm 1 references for the
	// first multiRHS vectors.
	std, fb, lb *fbmpk.Plan
	refK        [][]float64
	refCombo    [][]float64

	// Registry and HTTP legs: alt has a's structure with other values;
	// refPlan[v] is a fresh plan (same options as the cached one) on
	// value set v, the bitwise reference for cached-plan results.
	alt     *fbmpk.Matrix
	refPlan [2]*fbmpk.Plan
	regRef  [2][]float64

	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	key    string
	bodies [][]byte

	generateS     float64
	expectMisses  uint64
	expectUpdated uint64
}

func matrixSeed(seed uint64, i int) uint64 { return seed*1_000_003 + uint64(i) }

// seededVector fills a start vector in [-1, 1).
func seededVector(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	return x
}

// newBed runs one set-up. On the bed of the registry leg the cold-build
// timings go to r as build_fb_ms / build_lb_ms samples: each is an
// AcquireCtx miss as the caller sees it (validation and content
// fingerprint included).
func newBed(r *run, matrix string, scale float64, seed uint64, threads, buildSeeds int, needs bedNeeds) (b *bed, err error) {
	ctx := context.Background()
	b = &bed{matrix: matrix, scale: scale, threads: threads,
		opts: []fbmpk.Option{fbmpk.WithThreads(threads)},
		reg:  fbmpk.NewRegistry(registryCapacity)}
	defer func(made *bed) {
		if err != nil {
			made.close()
		}
	}(b)
	lbOpts := append([]fbmpk.Option{fbmpk.WithEngine(fbmpk.EngineLevelBlocked)}, b.opts...)

	for i := 0; i < buildSeeds; i++ {
		for _, p := range b.built {
			if err := b.reg.Release(p); err != nil {
				return nil, err
			}
		}
		b.built = b.built[:0]
		b.seed = matrixSeed(seed, i)
		start := time.Now()
		a, err := fbmpk.GenerateSuiteMatrix(matrix, scale, b.seed)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", matrix, err)
		}
		b.generateS = time.Since(start).Seconds()
		b.a = a
		for _, eng := range []struct {
			metric string
			opts   []fbmpk.Option
		}{{"build_fb_ms", b.opts}, {"build_lb_ms", lbOpts}} {
			start := time.Now()
			p, err := b.reg.AcquireCtx(ctx, a, eng.opts...)
			d := time.Since(start)
			if !r.check("cold "+eng.metric, err) {
				return nil, err
			}
			if needs.registry {
				r.samples.add(eng.metric, ms(d))
			}
			b.built = append(b.built, p)
		}
	}
	b.expectMisses = uint64(2 * buildSeeds)

	rng := rand.New(rand.NewSource(int64(seed)))
	n := b.a.Rows
	b.xs = make([][]float64, vectorPool)
	for j := range b.xs {
		b.xs[j] = seededVector(rng, n)
	}
	b.coeffs = make([]float64, coeffCount)
	for i := range b.coeffs {
		b.coeffs[i] = (2*rng.Float64() - 1) / float64(int(1)<<i)
	}

	if needs.lib {
		if err := b.setupLib(); err != nil {
			return nil, err
		}
	}
	if needs.registry || needs.http {
		if err := b.setupRefPlans(needs.registry); err != nil {
			return nil, err
		}
	}
	if needs.http {
		if err := b.setupHTTP(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// setupLib takes the serial plans of the library leg — the FB and
// level-blocked plans the cold builds of b.a just made, so a 1 GB matrix
// is not built twice — and computes the Algorithm 1 references.
func (b *bed) setupLib() error {
	if b.threads != 1 {
		return fmt.Errorf("library leg on a %d-thread bed: its plans are serial", b.threads)
	}
	serial := fbmpk.WithThreads(1)
	var err error
	b.fb, b.lb = b.built[0], b.built[1]
	if b.std, err = fbmpk.NewPlan(b.a, fbmpk.WithEngine(fbmpk.EngineStandard), serial); err != nil {
		return err
	}
	b.refK = make([][]float64, multiRHS)
	b.refCombo = make([][]float64, multiRHS)
	for j := 0; j < multiRHS; j++ {
		b.refK[j], b.refCombo[j], err = reference(b.a, b.xs[j], b.coeffs)
		if err != nil {
			return err
		}
	}
	return nil
}

// reference runs the serial Algorithm 1 baseline once and returns both
// A^K x and the polynomial sum coeffs[i] A^i x accumulated from its
// iterates.
func reference(a *fbmpk.Matrix, x, coeffs []float64) (xk, combo []float64, err error) {
	combo = make([]float64, len(x))
	for i, v := range x {
		combo[i] = coeffs[0] * v
	}
	xk, err = core.StandardMPK(a, x, K, func(power int, it []float64) {
		c := coeffs[power]
		for i, v := range it {
			combo[i] += c * v
		}
	})
	return xk, combo, err
}

// setupRefPlans builds the bitwise references for results served by
// cached plans: a fresh plan with the cached plan's options on each
// value set.
func (b *bed) setupRefPlans(withAlt bool) error {
	mats := []*fbmpk.Matrix{b.a}
	if withAlt {
		b.alt = &fbmpk.Matrix{Rows: b.a.Rows, Cols: b.a.Cols, RowPtr: b.a.RowPtr, ColIdx: b.a.ColIdx,
			Val: make([]float64, len(b.a.Val))}
		for i, v := range b.a.Val {
			b.alt.Val[i] = 1.25 * v
		}
		mats = append(mats, b.alt)
	}
	for v, m := range mats {
		p, err := fbmpk.NewPlan(m, b.opts...)
		if err != nil {
			return err
		}
		b.refPlan[v] = p
		if b.regRef[v], err = p.MPK(b.xs[0], K); err != nil {
			return err
		}
		if err := fbmpk.Verify(m, b.xs[0], b.regRef[v], K, relTol); err != nil {
			return fmt.Errorf("reference plan on value set %d: %w", v, err)
		}
	}
	return nil
}

// setupHTTP starts the daemon in-process on a loopback port, uploads
// the matrix by generator spec and pre-encodes one request body per
// pool vector, so the timed loop sends bytes and nothing else.
func (b *bed) setupHTTP() error {
	b.srv = serve.New(serve.Config{PlanOptions: b.opts})
	b.hs = serve.NewHTTPServer(b.srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.url = "http://" + ln.Addr().String()

	spec, err := json.Marshal(serve.GeneratorSpec{Name: b.matrix, Scale: b.scale, Seed: b.seed})
	if err != nil {
		return err
	}
	resp, err := http.Post(b.url+"/v1/matrix", "application/json", bytes.NewReader(spec))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var up serve.UploadResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &up) != nil {
		return fmt.Errorf("upload: status %d: %s", resp.StatusCode, raw)
	}
	if up.Rows != b.a.Rows || up.NNZ != len(b.a.Val) {
		return fmt.Errorf("upload: daemon generated %dx%d nnz, bed has %dx%d", up.Rows, up.NNZ, b.a.Rows, len(b.a.Val))
	}
	b.key = up.Key
	b.bodies = make([][]byte, len(b.xs))
	for j, x := range b.xs {
		if b.bodies[j], err = json.Marshal(serve.OpRequest{Matrix: b.key, K: K, X0: x, Return: serve.ReturnFull}); err != nil {
			return err
		}
	}
	return nil
}

// close tears the bed down: daemon first (waiting for Serve to
// return), then every plan and the registry.
func (b *bed) close() {
	if b.hs != nil {
		serve.Shutdown(b.hs, 5*time.Second) //nolint:errcheck // forced close follows a failed drain
		<-b.served
		b.srv.Close()
	}
	for _, p := range b.built {
		b.reg.Release(p) //nolint:errcheck // release of a held plan
	}
	for _, p := range []*fbmpk.Plan{b.std, b.refPlan[0], b.refPlan[1]} {
		if p != nil {
			p.Close()
		}
	}
	b.reg.Close()
}

// checkRegistry asserts the registry's exact counters after all legs:
// every cold build was a miss that built, no update fell back to a
// rebuild, and every update swapped in place.
func (b *bed) checkRegistry(r *run) {
	st := b.reg.Stats()
	r.attempted++
	if st.Misses != b.expectMisses || st.Builds != b.expectMisses || st.Rebuilt != 0 ||
		st.Updated != b.expectUpdated || st.BuildFailures != 0 {
		r.fail("registry counters: misses=%d builds=%d (want %d) updated=%d (want %d) rebuilt=%d build_failures=%d",
			st.Misses, st.Builds, b.expectMisses, st.Updated, b.expectUpdated, st.Rebuilt, st.BuildFailures)
	}
}

func bitwiseEqual(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
