package bench

import (
	"fmt"
	"io"
	"strings"
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
		{"abl-parallel", "Ablation: ABMC colors vs level scheduling", AblationParallelism},
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
				// Only the paper's own tables/figures: ablations are opt-in.
				if !strings.HasPrefix(e.Name, "abl-") {
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
		if err := e.Run(w, cfg); err != nil {
			return fmt.Errorf("bench: %s: %w", e.Name, err)
		}
	}
	return nil
}
