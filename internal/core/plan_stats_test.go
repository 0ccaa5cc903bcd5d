package core

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fbmpk/internal/matgen"
	"fbmpk/internal/sparse"
)

func TestPlanStats(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	a := randomSymCSR(rng, 200, 4)

	// Serial standard plan: no preprocessing at all.
	p0, err := NewPlan(a, Options{Engine: EngineStandard})
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	if st := p0.Stats(); st.ReorderTime != 0 || st.SplitTime != 0 || st.NumColors != 0 {
		t.Errorf("standard plan stats = %+v, want zero", st)
	}

	// Serial FB: split only.
	p1, err := NewPlan(a, Options{Engine: EngineForwardBackward, BtB: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	if st := p1.Stats(); st.SplitTime <= 0 || st.ReorderTime != 0 {
		t.Errorf("serial FB stats = %+v, want split only", st)
	}

	// Parallel FB: reorder + split, colors and blocks recorded.
	p2, err := NewPlan(a, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	st := p2.Stats()
	if st.ReorderTime <= 0 || st.SplitTime <= 0 {
		t.Errorf("parallel FB stats = %+v, want both times positive", st)
	}
	if st.NumColors < 1 || st.NumBlocks < 1 {
		t.Errorf("parallel FB stats = %+v, want colors/blocks recorded", st)
	}
	if ord := p2.Ordering(); ord != nil && st.NumColors != ord.NumColors {
		t.Errorf("stats colors %d != ordering colors %d", st.NumColors, ord.NumColors)
	}
}

// TestPlanStatsStagesCoverReorder holds every engine's build to a
// complete ledger: the timed stages of the reordering (graph, color,
// permutation apply) must account for ReorderTime to within 5 %, so no
// seconds of a build sit in no stage — as the level schedule's BFS did
// before GraphTime recorded it. The untimed remainder is O(n)
// bookkeeping against O(nnz) stages, hence a bed with long rows; a
// build is retried because a collector cycle may land in the gap. The
// fused build (fb/t2) has no permutation stage of its own: its apply is
// the split's, so PermTime must stay zero and SplitTime carry the pass.
func TestPlanStatsStagesCoverReorder(t *testing.T) {
	spec, err := matgen.ByName("pwtk")
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Generate(0.05, 1)
	for _, c := range []struct {
		name  string
		opt   Options
		fused bool
	}{
		{"standard+abmc", Options{Engine: EngineStandard, ForceABMC: true}, false},
		{"fb/t2", Options{Engine: EngineForwardBackward, BtB: true, Threads: 2}, true},
		{"levelblock", Options{Engine: EngineLevelBlocked}, false},
		{"levelblock/t2", Options{Engine: EngineLevelBlocked, Threads: 2}, false},
	} {
		var st PlanStats
		var gap float64
		for try := 0; try < 5; try++ {
			p, err := NewPlan(a, c.opt)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			st = p.Stats()
			p.Close()
			if st.ReorderTime <= 0 || st.GraphTime <= 0 || (st.PermTime <= 0) != c.fused || (c.fused && st.SplitTime <= 0) {
				t.Fatalf("%s: stats %+v, want reorder and graph timed, and the apply under PermTime (SplitTime when fused)", c.name, st)
			}
			gap = 1 - float64(st.GraphTime+st.ColorTime+st.PermTime)/float64(st.ReorderTime)
			if gap >= 0 && gap <= 0.05 {
				break
			}
		}
		if gap < 0 || gap > 0.05 {
			t.Errorf("%s: graph %v + color %v + perm %v leave %.1f%% of reorder %v in no stage",
				c.name, st.GraphTime, st.ColorTime, st.PermTime, 100*gap, st.ReorderTime)
		}
		if m := buildBreakdown(st); m.Graph != st.GraphTime || m.Perm != st.PermTime || m.Reorder != st.ReorderTime {
			t.Errorf("%s: build breakdown %+v does not carry the stages of %+v", c.name, m, st)
		}
	}
}

// TestFBPlanBuildAllocation is the tripwire against the permuted copy
// (or an nnz-sized key array) coming back into the fused build: a
// 2-thread forward-backward plan may allocate its L+D+U and O(n) beside
// it — the ordering, the block graph, the schedule — and nothing else
// that scales with nnz. The 1.5 is headroom, not budget: a permuted
// copy alone is a whole second Triangular.
func TestFBPlanBuildAllocation(t *testing.T) {
	spec, err := matgen.ByName("pwtk")
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Generate(0.05, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := NewPlan(a, DefaultOptions(2))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tri := uint64(p.state.Load().tri.MemoryBytes())
	limit := tri*3/2 + uint64(64*a.Rows)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("2-thread FB build allocated %d bytes for a %d-byte split, limit %d", got, tri, limit)
	}
}

// TestSelfCheckAuditsFusedSplit: the fused build holds no permuted
// matrix, so WithSelfCheck rebuilds one and holds the split to it. A
// sound plan passes inside NewPlan; the same audit must then refuse
// every way a fused split can be wrong — a value, a diagonal, an entry
// dealt to the wrong column.
func TestSelfCheckAuditsFusedSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := randomSymCSR(rng, 300, 5)
	opt := DefaultOptions(2)
	opt.SelfCheck = true
	p, err := NewPlan(a, opt)
	if err != nil {
		t.Fatalf("sound fused plan failed its self-check: %v", err)
	}
	defer p.Close()
	ea, err := p.perm.ApplySym(a)
	if err != nil {
		t.Fatal(err)
	}
	tri := p.state.Load().tri
	if err := p.audit(ea, tri); err != nil {
		t.Fatalf("audit of the sound split: %v", err)
	}
	for name, corrupt := range map[string]func(c *sparse.Triangular){
		"L value":  func(c *sparse.Triangular) { c.L.Val[len(c.L.Val)/2]++ },
		"U value":  func(c *sparse.Triangular) { c.U.Val[0] = -c.U.Val[0] },
		"diagonal": func(c *sparse.Triangular) { c.D[7] = 0 },
		"U column": func(c *sparse.Triangular) { c.U.ColIdx[len(c.U.ColIdx)-1] = int32(c.N) },
		"L column": func(c *sparse.Triangular) {
			// Row 1 of a strictly lower triangle can only hold column 0;
			// find a later entry with room below it instead.
			for k := len(c.L.ColIdx) - 1; ; k-- {
				if c.L.ColIdx[k] > 0 && (k == 0 || c.L.ColIdx[k-1] < c.L.ColIdx[k]-1) {
					c.L.ColIdx[k]--
					return
				}
			}
		},
	} {
		c := &sparse.Triangular{N: tri.N, L: tri.L.Clone(), U: tri.U.Clone(), D: slices.Clone(tri.D)}
		corrupt(c)
		if err := p.audit(ea, c); err == nil {
			t.Errorf("%s: corrupted fused split passed the audit", name)
		}
	}
}

// TestWithValidatedVouchesForOneMatrix: the registry's proof lets
// NewPlan skip its own validation of exactly the matrix it names, and
// of no other.
func TestWithValidatedVouchesForOneMatrix(t *testing.T) {
	good := randomSymCSR(rand.New(rand.NewSource(3)), 40, 3)
	// Descending columns: malformed, but harmless to build a serial
	// standard plan from, so a skipped validation shows as a plan.
	bad := &sparse.CSR{Rows: 2, Cols: 2, RowPtr: []int64{0, 2, 3}, ColIdx: []int32{1, 0, 1}, Val: []float64{1, 2, 3}}
	std := Options{Engine: EngineStandard}
	for name, opts := range map[string][]Option{"unvouched": {std}, "vouched for another": {std, WithValidated(good)}} {
		if _, err := NewPlan(bad, opts...); !errors.Is(err, ErrInvalidMatrix) || !strings.HasSuffix(err.Error(), bad.Validate().Error()) {
			t.Errorf("%s: got %v, want ErrInvalidMatrix: %v", name, err, bad.Validate())
		}
	}
	p, err := NewPlan(bad, std, WithValidated(bad))
	if err != nil {
		t.Fatalf("vouched matrix was validated again: %v", err)
	}
	p.Close()
}
