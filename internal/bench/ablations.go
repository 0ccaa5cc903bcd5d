package bench

import (
	"fmt"
	"io"

	"fbmpk/internal/core"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// abmcPermuted applies the default ABMC ordering and returns the
// ordering and the permuted matrix.
func abmcPermuted(m *sparse.CSR) (*reorder.ABMCResult, *sparse.CSR, error) {
	return reorder.ABMCReorder(m, reorder.ABMCOptions{})
}

// AblationBlocks sweeps the ABMC block count — the paper fixes 512 or
// 1024 (Section III-D) and discusses the performance/parallelism
// trade-off; this bench quantifies it.
func AblationBlocks(w io.Writer, cfg Config) error {
	cfg = cfg.Normalize()
	specs, err := cfg.suite()
	if err != nil {
		return err
	}
	counts := []int{64, 128, 256, 512, 1024}
	header := []string{"input"}
	for _, nb := range counts {
		header = append(header, fmt.Sprintf("b=%d", nb))
	}
	header = append(header, "colors@512")
	t := &Table{
		Title:  fmt.Sprintf("Ablation: FBMPK time vs ABMC block count (k=%d, threads=%d, scale=%g)", cfg.K, cfg.Threads, cfg.Scale),
		Header: header,
	}
	for _, s := range specs {
		m := s.Generate(cfg.Scale, cfg.Seed)
		x0 := detVec(m.Rows, cfg.Seed)
		row := []string{s.Name}
		colorsAt512 := 0
		for _, nb := range counts {
			opt := core.DefaultOptions(cfg.Threads)
			opt.NumBlocks = nb
			p, err := core.NewPlan(m, opt)
			if err != nil {
				return err
			}
			tf := timeMPK(cfg, p, x0, cfg.K)
			if nb == 512 && p.Ordering() != nil {
				colorsAt512 = p.Ordering().NumColors
			}
			p.Close()
			row = append(row, tf.GeoMean.String())
		}
		row = append(row, fmt.Sprintf("%d", colorsAt512))
		t.AddRow(row...)
	}
	return cfg.Emit(w, t)
}

// AblationOrdering compares serial FBMPK+BtB run on the natural,
// RCM-reordered, and ABMC-reordered matrix: the pipeline's sensitivity
// to data layout, complementing Table III.
func AblationOrdering(w io.Writer, cfg Config) error {
	cfg = cfg.Normalize()
	specs, err := cfg.suite()
	if err != nil {
		return err
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: serial FBMPK+BtB time by ordering (k=%d, scale=%g)", cfg.K, cfg.Scale),
		Header: []string{"input", "natural", "RCM", "ABMC"},
	}
	runOn := func(m *sparse.CSR, x0 []float64) (string, error) {
		tri, err := sparse.Split(m)
		if err != nil {
			return "", err
		}
		tm := Measure(cfg.Runs, func() {
			if _, err := core.FBMPKSerial(tri, x0, cfg.K, true, nil, nil); err != nil {
				panic(err)
			}
		})
		return tm.GeoMean.String(), nil
	}
	for _, s := range specs {
		m := s.Generate(cfg.Scale, cfg.Seed)
		x0 := detVec(m.Rows, cfg.Seed)

		nat, err := runOn(m, x0)
		if err != nil {
			return err
		}
		rcmPerm, err := reorder.RCM(m)
		if err != nil {
			return err
		}
		rcmMat, err := rcmPerm.ApplySym(m)
		if err != nil {
			return err
		}
		px := make([]float64, m.Rows)
		rcmPerm.ApplyVec(x0, px)
		rcm, err := runOn(rcmMat, px)
		if err != nil {
			return err
		}
		ord, abmcMat, err := abmcPermuted(m)
		if err != nil {
			return err
		}
		ord.Perm.ApplyVec(x0, px)
		abmc, err := runOn(abmcMat, px)
		if err != nil {
			return err
		}
		t.AddRow(s.Name, nat, rcm, abmc)
	}
	return cfg.Emit(w, t)
}

// AblationParallelism contrasts the structural parallelism exposed by
// ABMC coloring against level scheduling (the Section VII alternative):
// fewer synchronization phases and more rows per phase are better.
func AblationParallelism(w io.Writer, cfg Config) error {
	cfg = cfg.Normalize()
	specs, err := cfg.suite()
	if err != nil {
		return err
	}
	t := &Table{
		Title: fmt.Sprintf("Ablation: ABMC colors vs level scheduling (scale=%g)", cfg.Scale),
		Header: []string{"input", "colors", "rows/color", "L levels", "rows/level",
			"phases ABMC (k=5)", "phases levels (k=5)"},
	}
	for _, s := range specs {
		m := s.Generate(cfg.Scale, cfg.Seed)
		ord, _, err := abmcPermuted(m)
		if err != nil {
			return err
		}
		tri, err := sparse.Split(m)
		if err != nil {
			return err
		}
		n := float64(m.Rows)
		colors := ord.NumColors
		levels := lowerLevels(tri.L)
		k := 5
		t.AddRow(s.Name,
			fmt.Sprintf("%d", colors), f2(n/float64(colors)),
			fmt.Sprintf("%d", levels), f2(n/float64(levels)),
			fmt.Sprintf("%d", k*colors), fmt.Sprintf("%d", k*levels))
	}
	t.AddNote("each phase ends in a barrier; ABMC trades slightly lower locality for far fewer phases")
	return cfg.Emit(w, t)
}

// lowerLevels returns the depth of the level schedule of a strictly lower
// triangular matrix: level(i) = 1 + the largest level(j) over its entries
// (i, j), one forward pass because j < i.
func lowerLevels(l *sparse.CSR) int {
	level := make([]int32, l.Rows)
	var top int32
	for i := range level {
		cols, _ := l.Row(i)
		for _, c := range cols {
			level[i] = max(level[i], level[c]+1)
		}
		top = max(top, level[i])
	}
	return int(top) + 1
}
