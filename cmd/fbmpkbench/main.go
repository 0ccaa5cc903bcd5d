// Command fbmpkbench regenerates the paper's evaluation tables and
// figures (and the three ablations that quantify a paper section) on
// synthetic stand-ins of the Table II matrix suite. It prints tables;
// measuring the system — out of cache, every result verified, runs
// compared by a tool — is `bash benchmark/run.sh`.
//
// Usage:
//
//	fbmpkbench -exp fig7,fig9 -scale 0.01 -runs 10 -threads 4
//	fbmpkbench -exp paper            # every paper table/figure
//	fbmpkbench -exp all -csv         # plus the ablations, as CSV
//	fbmpkbench -list                 # show available experiments
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fbmpk/internal/bench"
)

func main() {
	var (
		exps     = flag.String("exp", "paper", "comma-separated experiments, or 'paper' / 'all'")
		scale    = flag.Float64("scale", 0.01, "fraction of the paper's matrix sizes to generate")
		seed     = flag.Uint64("seed", 1, "generator seed")
		runs     = flag.Int("runs", 10, "timing repetitions per kernel (paper uses 50)")
		threads  = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		k        = flag.Int("k", 5, "MPK power for single-k experiments")
		matrices = flag.String("matrices", "", "comma-separated matrix subset (default: all 14)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list     = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-14s %s\n", e.Name, e.Description)
		}
		return
	}

	cfg := bench.Config{
		Scale:    *scale,
		Seed:     *seed,
		Runs:     *runs,
		Threads:  *threads,
		K:        *k,
		Matrices: splitList(*matrices),
		CSV:      *csv,
	}
	if err := bench.Run(os.Stdout, cfg, splitList(*exps)); err != nil {
		fmt.Fprintln(os.Stderr, "fbmpkbench:", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
