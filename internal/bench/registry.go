package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Experiment is a named driver regenerating one paper table/figure or
// one ablation.
type Experiment struct {
	Name        string
	Description string
	Run         func(io.Writer, Config) error
}

// Registry lists every experiment in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{"tab1", "Table I: evaluation platform", Table1},
		{"tab2", "Table II: input matrix suite", Table2},
		{"fig7", "Fig 7: FBMPK speedup over baseline, k=5", Fig7},
		{"fig8", "Fig 8: speedup vs power k=3..9", Fig8},
		{"fig9", "Fig 9: DRAM traffic ratio (cache simulator)", Fig9},
		{"fig10", "Fig 10: FB vs FB+BtB ablation", Fig10},
		{"tab3", "Table III: single-SpMV effect of ABMC reordering", Table3},
		{"tab4", "Table IV: storage overhead CSR vs L+U+d", Table4},
		{"fig11", "Fig 11: ABMC preprocessing cost in SpMV units", Fig11},
		{"fig12", "Fig 12: thread scalability", Fig12},
		{"abl-blocks", "Ablation: ABMC block-count sweep", AblationBlocks},
		{"abl-order", "Ablation: natural vs RCM vs ABMC ordering", AblationOrdering},
		{"abl-formats", "Ablation: CSR vs SELL vs BSR SpMV", AblationFormats},
		{"abl-parallel", "Ablation: ABMC colors vs level scheduling", AblationParallelism},
		{"abl-wavefront", "Ablation: FBMPK vs level-based (LB-MPK-style) traffic", AblationWavefront},
		{"abl-multirhs", "Ablation: batched multi-RHS FBMPK vs m independent runs", MultiRHS},
		{"autotune", "Backend autotuner verdicts + autotuned vs CSR at full scale", Autotune},
		{"levelblock", "Engine arbitration: ABMC-FB vs level-blocked vs auto across k", LevelBlock},
		{"serving", "Serving: concurrent callers on one shared plan + metrics", Serving},
		{"serving-cache", "Serving: plan registry amortization + singleflight coalescing", ServingCache},
		{"streaming", "Streaming: in-place value updates vs plan rebuilds across update:solve ratios", Streaming},
	}
}

// Names returns the registered experiment names in order.
func Names() []string {
	reg := Registry()
	out := make([]string, len(reg))
	for i, e := range reg {
		out[i] = e.Name
	}
	return out
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, error) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %s)",
		name, strings.Join(Names(), ", "))
}

// Run executes the named experiments (comma-separated sets are split
// by the caller); "all" and "paper" expand to groups. Experiments run
// in registry order regardless of the requested order.
func Run(w io.Writer, cfg Config, names []string) error {
	want := map[string]bool{}
	for _, n := range names {
		switch n {
		case "all":
			for _, e := range Registry() {
				want[e.Name] = true
			}
		case "paper":
			for _, e := range Registry() {
				// Only the paper's own tables/figures: ablations, serving,
				// the autotuner study, and the streaming-update study are
				// opt-in.
				if !strings.HasPrefix(e.Name, "abl-") && !strings.HasPrefix(e.Name, "serving") &&
					e.Name != "autotune" && e.Name != "levelblock" && e.Name != "streaming" {
					want[e.Name] = true
				}
			}
		default:
			if _, err := Lookup(n); err != nil {
				return err
			}
			want[n] = true
		}
	}
	if len(want) == 0 {
		return fmt.Errorf("bench: no experiments selected")
	}
	for _, e := range Registry() {
		if !want[e.Name] {
			continue
		}
		start := time.Now()
		if err := e.Run(w, cfg); err != nil {
			return fmt.Errorf("bench: %s: %w", e.Name, err)
		}
		if cfg.Report != nil {
			cfg.Report.addExperiment(ExperimentRecord{Name: e.Name, Duration: time.Since(start)})
		}
	}
	return nil
}
