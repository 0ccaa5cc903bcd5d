// Command spmvprof replays MPK kernels through the cache simulator and
// reports DRAM traffic — the per-matrix view behind Fig 9. It can
// sweep k, compare vector layouts, and simulate the last-level caches
// of the paper's four platforms or a capacity-scaled cache. Below the
// simulated table it runs the same powers on a 2-thread FB plan and
// prints the measured worker-ns per nonzero of each pipeline phase
// (PlanMetrics.NsPerNnz): at 12 matrix bytes per nonzero, the achieved
// streaming rate to hold against the traffic the simulator predicts.
//
// Usage:
//
//	spmvprof -matrix ML_Geer -scale 0.01 -k 3,6,9
//	spmvprof -matrix pwtk -llc xeon           # Table I Xeon LLC
//	spmvprof -file m.mtx -k 5 -ratio 8        # scaled LLC, matrix/LLC = 8
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fbmpk"
	"fbmpk/internal/cachesim"
	"fbmpk/internal/sparse"
)

func main() {
	var (
		file   = flag.String("file", "", "MatrixMarket file")
		matrix = flag.String("matrix", "", "suite matrix name")
		scale  = flag.Float64("scale", 0.01, "suite matrix scale")
		seed   = flag.Uint64("seed", 1, "generator seed")
		ks     = flag.String("k", "3,6,9", "comma-separated MPK powers")
		llc    = flag.String("llc", "scaled", "LLC model: scaled | xeon | kp920 | thunderx2 | ft2000")
		ratio  = flag.Float64("ratio", 8, "matrix-bytes / LLC-bytes ratio for -llc scaled")
	)
	flag.Parse()
	if err := run(*file, *matrix, *scale, *seed, *ks, *llc, *ratio); err != nil {
		fmt.Fprintln(os.Stderr, "spmvprof:", err)
		os.Exit(1)
	}
}

func run(file, matrix string, scale float64, seed uint64, ks, llc string, ratio float64) error {
	var (
		a   *fbmpk.Matrix
		err error
	)
	switch {
	case file != "":
		a, _, err = fbmpk.LoadMatrixMarket(file)
	case matrix != "":
		a, err = fbmpk.GenerateSuiteMatrix(matrix, scale, seed)
	default:
		return fmt.Errorf("one of -file or -matrix is required")
	}
	if err != nil {
		return err
	}
	tri, err := sparse.Split(a)
	if err != nil {
		return err
	}

	var cfg cachesim.Config
	switch llc {
	case "scaled":
		cfg = cachesim.ScaledConfig(a.MemoryBytes(), ratio)
	case "xeon":
		cfg = cachesim.ConfigXeon
	case "kp920":
		cfg = cachesim.ConfigKP920
	case "thunderx2":
		cfg = cachesim.ConfigThunderX2
	case "ft2000":
		cfg = cachesim.ConfigFT2000
	default:
		return fmt.Errorf("unknown -llc %q", llc)
	}

	fmt.Printf("matrix: %v (%d bytes CSR)\n", a, a.MemoryBytes())
	fmt.Printf("LLC: %d bytes, %d-way, %dB lines\n", cfg.SizeBytes, cfg.Assoc, cfg.LineBytes)
	fmt.Printf("%-5s %15s %15s %15s %8s %8s\n",
		"k", "baseline DRAM", "FBMPK DRAM", "FB(sep) DRAM", "ratio", "theory")
	var powers []int
	for _, part := range strings.Split(ks, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 1 {
			return fmt.Errorf("bad power %q", part)
		}
		powers = append(powers, k)
		std, fb, err := cachesim.CompareMPK(cfg, a, tri, k, true)
		if err != nil {
			return err
		}
		sep := cachesim.MustNew(cfg)
		cachesim.TraceFBMPK(sep, tri, k, false)
		fmt.Printf("%-5d %15d %15d %15d %7.0f%% %7.0f%%\n",
			k, std.TotalDRAM(), fb.TotalDRAM(), sep.Stats().TotalDRAM(),
			100*float64(fb.TotalDRAM())/float64(std.TotalDRAM()),
			100*float64(k+1)/float64(2*k))
	}

	// Phases are clocked on pooled plans only, hence two threads.
	plan, err := fbmpk.NewPlan(a, fbmpk.WithThreads(2))
	if err != nil {
		return err
	}
	defer plan.Close()
	x0 := sparse.Ones(a.Rows)
	for rep := 0; rep < 5; rep++ {
		for _, k := range powers {
			if _, err := plan.MPK(x0, k); err != nil {
				return err
			}
		}
	}
	m := plan.Metrics()
	fmt.Printf("measured, 2-thread FB plan, worker-ns per nonzero streamed (%.2f reads of A per SpMV):", m.ReadsPerSpMV)
	for _, ph := range []string{"head", "forward", "backward"} {
		fmt.Printf("  %s %.2f", ph, m.NsPerNnz[ph])
	}
	fmt.Println()
	return nil
}
