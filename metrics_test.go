package fbmpk

// PlanMetrics accounting contract: the traffic counters must reproduce
// the paper's headline result — the FB engine reads A about (k+1)/2
// times for k SpMVs ((k+1)/(2k) reads per SpMV), the standard engine
// exactly once per SpMV — and the snapshot must round-trip as the JSON
// an expvar integration would publish.

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestPlanMetricsReadsPerSpMV(t *testing.T) {
	a, err := GenerateSuiteMatrix("cant", 0.004, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x0 := randVec(rng, a.Rows)
	const k = 8

	fb, err := NewPlan(a) // serial FBMPK defaults
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	for i := 0; i < 3; i++ {
		if _, err := fb.MPK(x0, k); err != nil {
			t.Fatal(err)
		}
	}
	m := fb.Metrics()
	if m.SpMVs != 3*k {
		t.Fatalf("SpMVs = %d, want %d", m.SpMVs, 3*k)
	}
	if m.CallsByOp["mpk"] != 3 {
		t.Fatalf("CallsByOp[mpk] = %d, want 3", m.CallsByOp["mpk"])
	}
	// Headline check: (k+1)/(2k) reads of A per SpMV. The exact value
	// depends on the L/D/U balance of the matrix (the diagonal streams
	// with every forward sweep, the head pass adds one read of U), so
	// allow 15%.
	want := float64(k+1) / float64(2*k)
	if math.Abs(m.ReadsPerSpMV-want)/want > 0.15 {
		t.Errorf("FB ReadsPerSpMV = %.4f, want about %.4f", m.ReadsPerSpMV, want)
	}
	if m.ReadsPerSpMV >= 1 {
		t.Errorf("FB ReadsPerSpMV = %.4f, must beat the standard engine's 1", m.ReadsPerSpMV)
	}

	std, err := NewPlan(a, WithEngine(EngineStandard), WithBtB(false))
	if err != nil {
		t.Fatal(err)
	}
	defer std.Close()
	if _, err := std.MPK(x0, k); err != nil {
		t.Fatal(err)
	}
	sm := std.Metrics()
	if math.Abs(sm.ReadsPerSpMV-1) > 1e-12 {
		t.Errorf("standard ReadsPerSpMV = %.6f, want exactly 1", sm.ReadsPerSpMV)
	}

	// The level-blocked engine touches every stored entry once per
	// power: its saving is cache residency (cachesim), not this counter.
	lb, err := NewPlan(a, WithEngine(EngineLevelBlocked))
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	if _, err := lb.MPK(x0, k); err != nil {
		t.Fatal(err)
	}
	if r := lb.Metrics().ReadsPerSpMV; r <= 0 || r > 1.001 {
		t.Errorf("level-blocked ReadsPerSpMV = %.6f, want in (0, 1]", r)
	}

	// The multi-RHS pipeline amortizes the same traffic over m vectors.
	mr, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Close()
	const mvecs = 4
	xs := make([][]float64, mvecs)
	for j := range xs {
		xs[j] = randVec(rng, a.Rows)
	}
	if _, err := mr.MPKMulti(xs, k); err != nil {
		t.Fatal(err)
	}
	mm := mr.Metrics()
	if mm.SpMVs != k*mvecs {
		t.Fatalf("multi SpMVs = %d, want %d", mm.SpMVs, k*mvecs)
	}
	wantMulti := want / mvecs
	if math.Abs(mm.ReadsPerSpMV-wantMulti)/wantMulti > 0.15 {
		t.Errorf("multi ReadsPerSpMV = %.4f, want about %.4f", mm.ReadsPerSpMV, wantMulti)
	}
}

func TestPlanMetricsSymGSAndTime(t *testing.T) {
	a, err := GenerateSuiteMatrix("pwtk", 0.002, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(a, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rng := rand.New(rand.NewSource(8))
	b := randVec(rng, a.Rows)
	x := randVec(rng, a.Rows)
	const sweeps = 3
	if err := p.SymGS(b, x, sweeps); err != nil {
		t.Fatal(err)
	}
	m := p.Metrics()
	if m.CallsByOp["symgs"] != 1 {
		t.Fatalf("CallsByOp[symgs] = %d, want 1", m.CallsByOp["symgs"])
	}
	// One symmetric sweep = forward + backward half-sweep = 2 reads of
	// A, 2 SpMV-equivalents; the per-SpMV ratio is exactly 1.
	if m.SpMVs != 2*sweeps {
		t.Errorf("SpMVs = %d, want %d", m.SpMVs, 2*sweeps)
	}
	if math.Abs(m.ReadsPerSpMV-1) > 1e-12 {
		t.Errorf("SymGS ReadsPerSpMV = %.6f, want exactly 1", m.ReadsPerSpMV)
	}
	if m.CallTime <= 0 {
		t.Error("CallTime not recorded")
	}
	if m.ComputeTime <= 0 && m.WaitTime <= 0 {
		t.Error("parallel phase clocks recorded no time at all")
	}
	if _, ok := m.PhaseCompute["symgs"]; !ok {
		t.Errorf("PhaseCompute = %v, missing symgs phase", m.PhaseCompute)
	}

	// NsPerNnz is PhaseCompute over the nonzeros that phase streamed:
	// one k = 4 MPK streams U in the head, L and D in two forward sweeps
	// and U in two backward sweeps, and the per-phase counts must add up
	// to NnzStreamed.
	if _, err := p.MPK(x, 4); err != nil {
		t.Fatal(err)
	}
	m = p.Metrics()
	var nnz float64
	for _, ph := range []string{"symgs", "head", "forward", "backward"} {
		ns, ok := m.NsPerNnz[ph]
		if !ok || ns <= 0 {
			t.Fatalf("NsPerNnz = %v, missing phase %q", m.NsPerNnz, ph)
		}
		nnz += float64(m.PhaseCompute[ph]) / ns
	}
	if math.Abs(nnz-float64(m.NnzStreamed)) > 1e-6*float64(m.NnzStreamed) {
		t.Errorf("per-phase nonzeros sum to %.1f, NnzStreamed = %d", nnz, m.NnzStreamed)
	}
}

// TestPlanMetricsString checks the expvar contract: String returns the
// JSON encoding of the snapshot.
func TestPlanMetricsString(t *testing.T) {
	a, err := GenerateSuiteMatrix("cant", 0.002, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rng := rand.New(rand.NewSource(4))
	if _, err := p.MPK(randVec(rng, a.Rows), 3); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	s := p.Metrics().String()
	if err := json.Unmarshal([]byte(s), &decoded); err != nil {
		t.Fatalf("String() is not valid JSON: %v\n%s", err, s)
	}
	for _, key := range []string{"calls", "spmvs", "nnz_streamed", "matrix_nnz", "reads_of_a_per_spmv"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("metrics JSON missing %q: %s", key, s)
		}
	}
}

// TestPlanMetricsStandardSSpMVSingleSweep pins the parallel standard
// engine's SSpMV to one pass over the powers: the combination
// accumulates from the iterate hook of the same k sweeps that produce
// A^k x0, so the plan streams A exactly k times (1 read per SpMV) — for
// any worker count, with the same result bits.
func TestPlanMetricsStandardSSpMVSingleSweep(t *testing.T) {
	a, err := GenerateSuiteMatrix("cant", 0.004, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x0 := randVec(rng, a.Rows)
	coeffs := []float64{0.5, -1, 0.25, 0, 2}
	k := len(coeffs) - 1
	var ref []float64
	for _, threads := range []int{1, 4} {
		p, err := NewPlan(a, WithEngine(EngineStandard), WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		y, err := p.SSpMV(coeffs, x0)
		if err != nil {
			t.Fatal(err)
		}
		m := p.Metrics()
		p.Close()
		if m.Sweeps != uint64(k) || m.SpMVs != uint64(k) {
			t.Errorf("threads=%d: Sweeps = %d, SpMVs = %d, want %d each", threads, m.Sweeps, m.SpMVs, k)
		}
		if math.Abs(m.ReadsPerSpMV-1) > 1e-12 {
			t.Errorf("threads=%d: ReadsPerSpMV = %.6f, want exactly 1", threads, m.ReadsPerSpMV)
		}
		if ref == nil {
			ref = y
		}
		for i := range y {
			if y[i] != ref[i] {
				t.Fatalf("threads=%d: y[%d] = %g differs from serial %g", threads, i, y[i], ref[i])
			}
		}
	}
}
