package bench

import (
	"fmt"
	"io"
	"time"

	"fbmpk/internal/cachesim"
	"fbmpk/internal/core"
	"fbmpk/internal/matgen"
	"fbmpk/internal/sparse"
)

// suite resolves the config's matrix subset in Table II order.
func (c Config) suite() ([]matgen.Spec, error) {
	all := matgen.Suite()
	if len(c.Matrices) == 0 {
		return all, nil
	}
	want := map[string]bool{}
	for _, n := range c.Matrices {
		want[n] = true
	}
	var out []matgen.Spec
	for _, s := range all {
		if want[s.Name] {
			out = append(out, s)
			delete(want, s.Name)
		}
	}
	if len(want) != 0 {
		return nil, fmt.Errorf("bench: unknown matrices %v (have %v)",
			sortedCopy(keys(want)), matgen.Names())
	}
	return out, nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// detVec builds a deterministic pseudo-random start vector.
func detVec(n int, seed uint64) []float64 {
	x := make([]float64, n)
	s := seed*2654435761 + 0x9e3779b97f4a7c15
	for i := range x {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		x[i] = float64(int64(s%2000)-1000) / 1000
	}
	return x
}

// timeMPK times plan.MPK(x0, k) with the config's repetition count.
func timeMPK(cfg Config, p *core.Plan, x0 []float64, k int) Timing {
	return Measure(cfg.Runs, func() {
		if _, err := p.MPK(x0, k); err != nil {
			panic(err) // programming error: plan and inputs are matched
		}
	})
}

// Table1 reports the host platform, the analogue of the paper's
// hardware inventory.
func Table1(w io.Writer, cfg Config) error {
	cfg = cfg.Normalize()
	h := Host()
	t := &Table{
		Title:  "Table I: evaluation platform (paper: FT2000+, ThunderX2, KP920, Xeon)",
		Header: []string{"property", "value"},
	}
	t.AddRow("OS", h.OS)
	t.AddRow("arch", h.Arch)
	t.AddRow("physical CPUs visible", fmt.Sprintf("%d", h.NumCPU))
	t.AddRow("GOMAXPROCS", fmt.Sprintf("%d", h.GOMAXPROCS))
	t.AddRow("Go", h.GoVersion)
	t.AddRow("threads used", fmt.Sprintf("%d", cfg.Threads))
	t.AddNote("single host stands in for the paper's four platforms; see DESIGN.md §2")
	return cfg.Emit(w, t)
}

// Table2 generates the synthetic suite and reports its statistics
// next to the paper's Table II values.
func Table2(w io.Writer, cfg Config) error {
	cfg = cfg.Normalize()
	specs, err := cfg.suite()
	if err != nil {
		return err
	}
	t := &Table{
		Title: fmt.Sprintf("Table II: input matrices (synthetic stand-ins, scale=%g)", cfg.Scale),
		Header: []string{"ID", "input", "rows", "nnz", "nnz/row",
			"paper rows", "paper nnz/row", "sym"},
	}
	for _, s := range specs {
		m := s.Generate(cfg.Scale, cfg.Seed)
		st := matgen.Describe(m, false)
		t.AddRow(
			fmt.Sprintf("%d", s.ID), s.Name,
			fmt.Sprintf("%d", st.Rows), fmt.Sprintf("%d", st.NNZ), f2(st.PerRow),
			fmt.Sprintf("%d", s.PaperRows), f2(s.NNZPerRow()),
			fmt.Sprintf("%v", s.Symmetric),
		)
	}
	return cfg.Emit(w, t)
}

// Fig7 reproduces the headline experiment: FBMPK speedup over the
// standard MPK baseline at power k (paper: k=5) across the suite.
func Fig7(w io.Writer, cfg Config) error {
	cfg = cfg.Normalize()
	specs, err := cfg.suite()
	if err != nil {
		return err
	}
	t := &Table{
		Title: fmt.Sprintf("Fig 7: FBMPK speedup over baseline MPK (k=%d, threads=%d, scale=%g)",
			cfg.K, cfg.Threads, cfg.Scale),
		Header: []string{"input", "baseline", "fbmpk", "speedup"},
	}
	var speedups []float64
	for _, s := range specs {
		m := s.Generate(cfg.Scale, cfg.Seed)
		x0 := detVec(m.Rows, cfg.Seed)
		base, err := core.NewPlan(m, core.Options{Engine: core.EngineStandard, Threads: cfg.Threads})
		if err != nil {
			return err
		}
		fb, err := core.NewPlan(m, core.DefaultOptions(cfg.Threads))
		if err != nil {
			base.Close()
			return err
		}
		tb := timeMPK(cfg, base, x0, cfg.K)
		tf := timeMPK(cfg, fb, x0, cfg.K)
		base.Close()
		fb.Close()
		sp := float64(tb.GeoMean) / float64(tf.GeoMean)
		speedups = append(speedups, sp)
		t.AddRow(s.Name, tb.GeoMean.String(), tf.GeoMean.String(), f2(sp))
	}
	t.AddRow("average", "", "", f2(GeoMean(speedups)))
	t.AddNote("paper averages: 1.50x FT2000+, 1.54x ThunderX2, 1.47x KP920, 1.73x Xeon")
	return cfg.Emit(w, t)
}

// Fig8 sweeps the MPK power k from 3 to 9 and reports the FBMPK
// speedup for every matrix, the trend experiment of Section V-B.
func Fig8(w io.Writer, cfg Config) error {
	cfg = cfg.Normalize()
	specs, err := cfg.suite()
	if err != nil {
		return err
	}
	ks := []int{3, 4, 5, 6, 7, 8, 9}
	header := []string{"input"}
	for _, k := range ks {
		header = append(header, fmt.Sprintf("k=%d", k))
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig 8: FBMPK speedup vs power k (threads=%d, scale=%g)", cfg.Threads, cfg.Scale),
		Header: header,
	}
	perK := make([][]float64, len(ks))
	for _, s := range specs {
		m := s.Generate(cfg.Scale, cfg.Seed)
		x0 := detVec(m.Rows, cfg.Seed)
		base, err := core.NewPlan(m, core.Options{Engine: core.EngineStandard, Threads: cfg.Threads})
		if err != nil {
			return err
		}
		fb, err := core.NewPlan(m, core.DefaultOptions(cfg.Threads))
		if err != nil {
			base.Close()
			return err
		}
		row := []string{s.Name}
		for i, k := range ks {
			tb := timeMPK(cfg, base, x0, k)
			tf := timeMPK(cfg, fb, x0, k)
			sp := float64(tb.GeoMean) / float64(tf.GeoMean)
			perK[i] = append(perK[i], sp)
			row = append(row, f2(sp))
		}
		base.Close()
		fb.Close()
		t.AddRow(row...)
	}
	avg := []string{"average"}
	for i := range ks {
		avg = append(avg, f2(GeoMean(perK[i])))
	}
	t.AddRow(avg...)
	t.AddNote("paper trend: average speedup grows from ~1.3x at k=3 to ~1.7x at k=9")
	return cfg.Emit(w, t)
}

// Fig9 replays both pipelines through the cache simulator and reports
// FBMPK's DRAM volume as a fraction of the baseline's for k=3, 6, 9 —
// the LIKWID measurement of Section V-C.
func Fig9(w io.Writer, cfg Config) error {
	cfg = cfg.Normalize()
	specs, err := cfg.suite()
	if err != nil {
		return err
	}
	ks := []int{3, 6, 9}
	t := &Table{
		Title:  fmt.Sprintf("Fig 9: DRAM volume ratio FBMPK/baseline (cache simulator, scale=%g)", cfg.Scale),
		Header: []string{"input", "k=3", "k=6", "k=9", "theory k=9 (k+1)/2k"},
	}
	for _, s := range specs {
		m := s.Generate(cfg.Scale, cfg.Seed)
		tri, err := sparse.Split(m)
		if err != nil {
			return err
		}
		ccfg := cachesim.ScaledConfig(m.MemoryBytes(), 8)
		row := []string{s.Name}
		for _, k := range ks {
			std, fb, err := cachesim.CompareMPK(ccfg, m, tri, k, true)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.0f%%", 100*float64(fb.TotalDRAM())/float64(std.TotalDRAM())))
		}
		row = append(row, fmt.Sprintf("%.0f%%", 100*float64(10)/float64(18)))
		t.AddRow(row...)
	}
	t.AddNote("LLC scaled to preserve the paper's working-set/cache ratio (DESIGN.md §2)")
	t.AddNote("paper: averages 74%%, 65%%, 62%% for k=3,6,9; sparsest matrix (G3_circuit) worst")
	return cfg.Emit(w, t)
}

// Fig10 is the ablation of Section V-D: forward-backward alone (FB)
// versus FB plus the back-to-back vector layout (FB+BtB), both as
// speedup over the baseline at k.
func Fig10(w io.Writer, cfg Config) error {
	cfg = cfg.Normalize()
	specs, err := cfg.suite()
	if err != nil {
		return err
	}
	t := &Table{
		Title: fmt.Sprintf("Fig 10: FB vs FB+BtB speedup over baseline (k=%d, threads=%d, scale=%g)",
			cfg.K, cfg.Threads, cfg.Scale),
		Header: []string{"input", "FB", "FB+BtB"},
	}
	var fbs, btbs []float64
	for _, s := range specs {
		m := s.Generate(cfg.Scale, cfg.Seed)
		x0 := detVec(m.Rows, cfg.Seed)
		base, err := core.NewPlan(m, core.Options{Engine: core.EngineStandard, Threads: cfg.Threads})
		if err != nil {
			return err
		}
		fbOpt := core.DefaultOptions(cfg.Threads)
		fbOpt.BtB = false
		fb, err := core.NewPlan(m, fbOpt)
		if err != nil {
			return err
		}
		btb, err := core.NewPlan(m, core.DefaultOptions(cfg.Threads))
		if err != nil {
			return err
		}
		tb := timeMPK(cfg, base, x0, cfg.K)
		tf := timeMPK(cfg, fb, x0, cfg.K)
		tbtb := timeMPK(cfg, btb, x0, cfg.K)
		base.Close()
		fb.Close()
		btb.Close()
		spFB := float64(tb.GeoMean) / float64(tf.GeoMean)
		spBtB := float64(tb.GeoMean) / float64(tbtb.GeoMean)
		fbs = append(fbs, spFB)
		btbs = append(btbs, spBtB)
		t.AddRow(s.Name, f2(spFB), f2(spBtB))
	}
	t.AddRow("average", f2(GeoMean(fbs)), f2(GeoMean(btbs)))
	t.AddNote("paper (FT2000+): FB alone 1.41x, FB+BtB 1.50x average")
	return cfg.Emit(w, t)
}

// Table3 measures the effect of ABMC reordering on a single SpMV:
// ratio of natural-order SpMV time to ABMC-order SpMV time (> 1 means
// the reordered matrix is faster, as in the paper's Table III).
func Table3(w io.Writer, cfg Config) error {
	cfg = cfg.Normalize()
	specs, err := cfg.suite()
	if err != nil {
		return err
	}
	t := &Table{
		Title:  fmt.Sprintf("Table III: single-SpMV ratio natural/ABMC (>1 = ABMC faster, scale=%g)", cfg.Scale),
		Header: []string{"ID", "input", "ratio"},
	}
	for _, s := range specs {
		m := s.Generate(cfg.Scale, cfg.Seed)
		_, perm, err := abmcPermuted(m)
		if err != nil {
			return err
		}
		x0 := detVec(m.Rows, cfg.Seed)
		y := make([]float64, m.Rows)
		tNat := Measure(cfg.Runs, func() { sparse.SpMV(m, x0, y) })
		tAbmc := Measure(cfg.Runs, func() { sparse.SpMV(perm, x0, y) })
		t.AddRow(fmt.Sprintf("%d", s.ID), s.Name,
			f2(float64(tNat.GeoMean)/float64(tAbmc.GeoMean)))
	}
	t.AddNote("paper (FT2000+): mostly 0.97-1.08, audikw_1 1.80, inline_1 1.44")
	return cfg.Emit(w, t)
}

// Table4 compares the storage cost of plain CSR against the split
// L+U+d layout, reproducing the paper's Table IV accounting.
func Table4(w io.Writer, cfg Config) error {
	cfg = cfg.Normalize()
	specs, err := cfg.suite()
	if err != nil {
		return err
	}
	t := &Table{
		Title:  fmt.Sprintf("Table IV: storage, CSR vs L+U+d (scale=%g)", cfg.Scale),
		Header: []string{"input", "nnz", "CSR bytes", "L+U+d bytes", "ratio"},
	}
	for _, s := range specs {
		m := s.Generate(cfg.Scale, cfg.Seed)
		tri, err := sparse.Split(m)
		if err != nil {
			return err
		}
		cb, sb := m.MemoryBytes(), tri.MemoryBytes()
		t.AddRow(s.Name, fmt.Sprintf("%d", m.NNZ()),
			fmt.Sprintf("%d", cb), fmt.Sprintf("%d", sb), f3(float64(sb)/float64(cb)))
	}
	t.AddNote("paper: col_ind nnz-n, row_ptr 2(n+1), values nnz-n, d n -- nearly identical totals")
	return cfg.Emit(w, t)
}

// Fig11 measures the ABMC preprocessing cost in units of single-thread
// SpMV invocations (Section V-F; paper average: 36 SpMVs).
func Fig11(w io.Writer, cfg Config) error {
	cfg = cfg.Normalize()
	specs, err := cfg.suite()
	if err != nil {
		return err
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig 11: ABMC reorder cost in single-thread SpMV units (scale=%g)", cfg.Scale),
		Header: []string{"input", "reorder", "1 SpMV", "No. of SpMVs"},
	}
	var units []float64
	for _, s := range specs {
		m := s.Generate(cfg.Scale, cfg.Seed)
		x0 := detVec(m.Rows, cfg.Seed)
		y := make([]float64, m.Rows)
		tSpmv := Measure(cfg.Runs, func() { sparse.SpMV(m, x0, y) })
		start := time.Now()
		if _, _, err := abmcPermuted(m); err != nil {
			return err
		}
		reorderTime := time.Since(start)
		u := float64(reorderTime) / float64(tSpmv.GeoMean)
		units = append(units, u)
		t.AddRow(s.Name, reorderTime.String(), tSpmv.GeoMean.String(), f2(u))
	}
	t.AddRow("average", "", "", f2(GeoMean(units)))
	t.AddNote("one-off offline cost, amortized across MPK invocations; paper average 36")
	return cfg.Emit(w, t)
}

// Fig12 is the scalability sweep: FBMPK speedup over the
// single-threaded baseline MPK as threads grow (paper: up to 64 on
// FT2000+; here bounded by GOMAXPROCS, structural on 1-CPU hosts).
func Fig12(w io.Writer, cfg Config) error {
	cfg = cfg.Normalize()
	specs, err := cfg.suite()
	if err != nil {
		return err
	}
	threads := threadSweep(cfg.Threads)
	header := []string{"input"}
	for _, th := range threads {
		header = append(header, fmt.Sprintf("t=%d", th))
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig 12: FBMPK speedup vs 1-thread baseline (k=%d, scale=%g)", cfg.K, cfg.Scale),
		Header: header,
	}
	for _, s := range specs {
		m := s.Generate(cfg.Scale, cfg.Seed)
		x0 := detVec(m.Rows, cfg.Seed)
		base, err := core.NewPlan(m, core.Options{Engine: core.EngineStandard})
		if err != nil {
			return err
		}
		tb := timeMPK(cfg, base, x0, cfg.K)
		base.Close()
		row := []string{s.Name}
		for _, th := range threads {
			fb, err := core.NewPlan(m, core.DefaultOptions(th))
			if err != nil {
				return err
			}
			tf := timeMPK(cfg, fb, x0, cfg.K)
			fb.Close()
			row = append(row, f2(float64(tb.GeoMean)/float64(tf.GeoMean)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper (FT2000+): average 2.08x at 4 threads to 18.05x at 64 threads")
	if Host().NumCPU == 1 {
		t.AddNote("host exposes 1 CPU: thread sweep exercises the engine but cannot show wall-clock scaling")
	}
	return cfg.Emit(w, t)
}

// threadSweep returns {1, 2, 4, ...} up to max, always including max.
func threadSweep(max int) []int {
	var out []int
	for t := 1; t < max; t *= 2 {
		out = append(out, t)
	}
	out = append(out, max)
	// Deduplicate when max is itself a power of two.
	if len(out) >= 2 && out[len(out)-2] == out[len(out)-1] {
		out = out[:len(out)-1]
	}
	return out
}
