package core

import (
	"math/rand"
	"testing"

	"fbmpk/internal/matgen"
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
// build is retried because a collector cycle may land in the gap.
func TestPlanStatsStagesCoverReorder(t *testing.T) {
	spec, err := matgen.ByName("pwtk")
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Generate(0.05, 1)
	for _, c := range []struct {
		name string
		opt  Options
	}{
		{"standard+abmc", Options{Engine: EngineStandard, ForceABMC: true}},
		{"fb/t2", Options{Engine: EngineForwardBackward, BtB: true, Threads: 2}},
		{"levelblock", Options{Engine: EngineLevelBlocked}},
		{"levelblock/t2", Options{Engine: EngineLevelBlocked, Threads: 2}},
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
			if st.ReorderTime <= 0 || st.GraphTime <= 0 || st.PermTime <= 0 {
				t.Fatalf("%s: stats %+v, want reorder, graph and perm stages timed", c.name, st)
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
