package fbmpk

import (
	"context"
	"math/rand"
	"testing"
)

// TestDifferentialLevelBlocked is the level-blocked engine's dedicated
// differential battery: on a matrix with real level structure, every
// power k in 1..8 and both worker counts must match the serial
// standard baseline within diffTol, agree with the ABMC-FB engine to
// the same tolerance, and the parallel level-blocked kernel must be
// bitwise identical to the serial one (the determinism contract the
// even row split within steps guarantees).
func TestDifferentialLevelBlocked(t *testing.T) {
	a, err := GenerateSuiteMatrix("G3_circuit", 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	x0 := diffVec(rng, a.Rows)

	serial, err := NewPlan(a, WithEngine(EngineLevelBlocked), WithSelfCheck(true))
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	if st := serial.Stats(); st.NumLevels < 2 || st.NumBlocks < 1 {
		t.Fatalf("test matrix has no level structure to exercise: %+v", st)
	}
	fb, err := NewPlan(a, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()

	for _, threads := range []int{1, 4} {
		par, err := NewPlan(a, WithEngine(EngineLevelBlocked), WithThreads(threads), WithSelfCheck(true))
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 8; k++ {
			want, err := StandardMPK(a, x0, k)
			if err != nil {
				t.Fatal(err)
			}
			gotS, err := serial.MPK(x0, k)
			if err != nil {
				t.Fatalf("threads=%d k=%d serial MPK: %v", threads, k, err)
			}
			if d := relMaxDiff(t, gotS, want); d > diffTol {
				t.Errorf("threads=%d k=%d: serial LB vs standard diff %g", threads, k, d)
			}
			gotP, err := par.MPK(x0, k)
			if err != nil {
				t.Fatalf("threads=%d k=%d parallel MPK: %v", threads, k, err)
			}
			for i := range gotS {
				if gotP[i] != gotS[i] {
					t.Fatalf("threads=%d k=%d: parallel LB diverges bitwise at [%d]: %g vs %g",
						threads, k, i, gotP[i], gotS[i])
				}
			}
			gotFB, err := fb.MPK(x0, k)
			if err != nil {
				t.Fatal(err)
			}
			if d := relMaxDiff(t, gotFB, gotS); d > diffTol {
				t.Errorf("threads=%d k=%d: LB vs ABMC-FB diff %g", threads, k, d)
			}

			gotCtx, err := par.MPKCtx(context.Background(), x0, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := range gotP {
				if gotCtx[i] != gotP[i] {
					t.Fatalf("threads=%d k=%d: MPKCtx diverges bitwise at [%d]", threads, k, i)
				}
			}

			allS, err := serial.MPKAll(x0, k)
			if err != nil {
				t.Fatal(err)
			}
			allP, err := par.MPKAll(x0, k)
			if err != nil {
				t.Fatal(err)
			}
			for p := range allS {
				wantP, err := StandardMPK(a, x0, p)
				if p == 0 {
					wantP, err = x0, nil
				}
				if err != nil {
					t.Fatal(err)
				}
				if d := relMaxDiff(t, allS[p], wantP); d > diffTol {
					t.Errorf("threads=%d k=%d: MPKAll power %d diff %g", threads, k, p, d)
				}
				for i := range allS[p] {
					if allP[p][i] != allS[p][i] {
						t.Fatalf("threads=%d k=%d: parallel MPKAll power %d diverges bitwise", threads, k, p)
					}
				}
			}

			coeffs := diffVec(rng, k+1)
			wantCombo := refSSpMV(t, a, coeffs, x0)
			comboS, err := serial.SSpMV(coeffs, x0)
			if err != nil {
				t.Fatal(err)
			}
			if d := relMaxDiff(t, comboS, wantCombo); d > diffTol {
				t.Errorf("threads=%d k=%d: SSpMV diff %g", threads, k, d)
			}
			comboP, err := par.SSpMV(coeffs, x0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range comboS {
				if comboP[i] != comboS[i] {
					t.Fatalf("threads=%d k=%d: parallel SSpMV diverges bitwise at [%d]", threads, k, i)
				}
			}
		}
		par.Close()
	}
}

// TestLevelBlockedDegenerateShapes pins the level partition and block
// grouping on shapes where the general machinery degenerates: a
// diagonal matrix (every row its own singleton level), disconnected
// components (levels stack per component), a 1x1 matrix, and k far
// beyond the graph diameter (the skewed epilogue drains more steps
// than there are levels).
func TestLevelBlockedDegenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))

	t.Run("diagonal", func(t *testing.T) {
		const n = 40
		tr, _ := NewTriplets(n, n, n)
		for i := 0; i < n; i++ {
			tr.Add(i, i, 1+float64(i)/8)
		}
		a := tr.ToCSR()
		p, err := NewPlan(a, WithEngine(EngineLevelBlocked), WithSelfCheck(true))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if got := p.Stats().NumLevels; got != n {
			t.Fatalf("diagonal matrix: %d levels, want %d singleton levels", got, n)
		}
		x0 := diffVec(rng, n)
		checkAgainstStandard(t, p, a, x0, 5)
	})

	t.Run("disconnected", func(t *testing.T) {
		// Two tridiagonal chains with no coupling: BFS levels stack the
		// components, and no skewed step may read across the gap.
		const half, n = 20, 40
		tr, _ := NewTriplets(n, n, 3*n)
		for c := 0; c < 2; c++ {
			for i := 0; i < half; i++ {
				r := c*half + i
				tr.Add(r, r, 2)
				if i+1 < half {
					tr.Add(r, r+1, -0.5)
					tr.Add(r+1, r, -0.5)
				}
			}
		}
		a := tr.ToCSR()
		p, err := NewPlan(a, WithEngine(EngineLevelBlocked), WithLevelBlockBytes(256), WithSelfCheck(true))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if got := p.Stats().NumLevels; got != n {
			t.Fatalf("two stacked chains: %d levels, want %d", got, n)
		}
		if p.Stats().NumBlocks < 2 {
			t.Fatalf("256-byte budget should split the schedule: %+v", p.Stats())
		}
		x0 := diffVec(rng, n)
		checkAgainstStandard(t, p, a, x0, 6)
	})

	t.Run("1x1", func(t *testing.T) {
		tr, _ := NewTriplets(1, 1, 1)
		tr.Add(0, 0, 2)
		a := tr.ToCSR()
		p, err := NewPlan(a, WithEngine(EngineLevelBlocked))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		got, err := p.MPK([]float64{3}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 96 {
			t.Fatalf("2^5 * 3 = %g, want 96", got[0])
		}
	})

	t.Run("k-beyond-diameter", func(t *testing.T) {
		// A 5-node chain has diameter 4; k=8 makes every pass's skewed
		// tail longer than the whole level set.
		const n = 5
		tr, _ := NewTriplets(n, n, 3*n)
		for i := 0; i < n; i++ {
			tr.Add(i, i, 2)
			if i+1 < n {
				tr.Add(i, i+1, -1)
				tr.Add(i+1, i, -1)
			}
		}
		a := tr.ToCSR()
		for _, threads := range []int{1, 4} {
			p, err := NewPlan(a, WithEngine(EngineLevelBlocked), WithThreads(threads), WithSelfCheck(true))
			if err != nil {
				t.Fatal(err)
			}
			x0 := diffVec(rng, n)
			checkAgainstStandard(t, p, a, x0, 8)
			p.Close()
		}
	})
}

// checkAgainstStandard compares plan MPK and MPKAll outputs against
// the serial standard baseline for power k.
func checkAgainstStandard(t *testing.T, p *Plan, a *Matrix, x0 []float64, k int) {
	t.Helper()
	all, err := p.MPKAll(x0, k)
	if err != nil {
		t.Fatal(err)
	}
	for pw := 1; pw <= k; pw++ {
		want, err := StandardMPK(a, x0, pw)
		if err != nil {
			t.Fatal(err)
		}
		if d := relMaxDiff(t, all[pw], want); d > diffTol {
			t.Fatalf("power %d: diff %g vs standard baseline", pw, d)
		}
	}
}

// TestRegistryEngineVerdictReplay mirrors the backend verdict-cache
// test for the engine arbitration: the first EngineAuto Acquire runs
// the arbitration (fresh verdict, nonzero samples on a measurable
// matrix), a second Acquire with a different plan key but the same
// structure and thread count replays it with zero samples, and a
// verdict arbitrated at one thread count is NOT replayed at another.
func TestRegistryEngineVerdictReplay(t *testing.T) {
	a, err := GenerateSuiteMatrix("G3_circuit", 0.002, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(8)
	defer reg.Close()

	p1, err := reg.Acquire(a, WithEngine(EngineAuto), WithBtB(true))
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

	// Different plan key (self-check layer), same structure and tuning
	// parameters: the verdict replays from the registry with zero
	// samples and identical fields.
	before := reg.Stats()
	p2, err := reg.Acquire(a, WithEngine(EngineAuto), WithBtB(true), WithSelfCheck(true))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Release(p2)
	after := reg.Stats()
	if after.Builds != before.Builds+1 {
		t.Fatalf("self-check option should force a distinct plan build: %+v -> %+v", before, after)
	}
	if after.TuneHits != before.TuneHits+1 {
		t.Fatalf("second Acquire should have replayed the verdict: %+v -> %+v", before, after)
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
	if p2.Engine() != p1.Engine() {
		t.Fatalf("replayed verdict resolved a different engine: %v vs %v", p2.Engine(), p1.Engine())
	}

	// Same results from cached-verdict and fresh-verdict plans: the
	// arbitration outcome is injected, so both plans executed the same
	// engine and must agree bitwise.
	rng := rand.New(rand.NewSource(41))
	x0 := diffVec(rng, a.Rows)
	y1, err := p1.MPK(x0, 4)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := p2.MPK(x0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("cached-verdict plan diverges bitwise at [%d]: %g vs %g", i, y1[i], y2[i])
		}
	}

	// A parallel plan arbitrates with the parallel kernels: the serial
	// verdict must not be replayed for it, and its own verdict records
	// the thread count.
	before = reg.Stats()
	p3, err := reg.Acquire(a, WithEngine(EngineAuto), WithBtB(true), WithThreads(4))
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
