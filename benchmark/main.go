// Command benchmark is the repository's one benchmark: four workloads
// (mpk-dram, mpk-cache, serve-vec, plan-churn), thirteen end-to-end
// metrics taken with spans off, and a traced run that resolves the same
// operations layer by layer. See README.md in this directory.
//
//	go run ./benchmark -workload mpk-cache -seed 1            one end-to-end run
//	go run ./benchmark -workload mpk-cache -seed 1 -trace 1   its traced run
//	go run ./benchmark -seed 1 -runs 10                       all workloads, one report
//	go run ./benchmark -smoke                                 all workloads at tiny scale
//	go run ./benchmark -compare old.json new.json             verdict per (metric, workload)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		var ee exitError
		if !errors.As(err, &ee) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this workload in this process (default: all, one process each)")
	seed := fs.Uint64("seed", 1, "seed of every generated matrix and vector")
	seconds := fs.Float64("seconds", 20, "time cap of each timed leg; count caps are the normal end")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end run with spans off")
	smoke := fs.Bool("smoke", false, "tiny matrices and counts: exercises every path, measures nothing")
	runs := fs.Int("runs", 1, "all-workloads mode: end-to-end runs per workload, seeds seed..seed+runs-1")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for reports and trace files")
	compare := fs.Bool("compare", false, "compare two all-workloads reports: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two report files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *workload == "" {
		return runAll(stdout, *seed, *seconds, *runs, *smoke, *out)
	}
	spec, err := findWorkload(*workload)
	if err != nil {
		return err
	}
	if *smoke {
		spec = spec.smoke()
	}
	rep, err := runWorkload(runOptions{spec: spec, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, outDir: *out})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if err := writeJSON(runReportPath(*out, spec.Name, *seed, rep.Trace), rep); err != nil {
		return err
	}
	printRun(stdout, rep)
	// The driver reads the last line.
	if err := json.NewEncoder(stdout).Encode(resultLine(rep)); err != nil {
		return err
	}
	if rep.Failed > 0 {
		return exitError{rep.Failed}
	}
	return nil
}

func runReportPath(dir, workload string, seed uint64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("run-%s-seed%d-trace%d.json", workload, seed, t))
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// result is the one JSON object the driver contract asks for.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(rep *runReport) result {
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: make(map[string]resultMetric, len(rep.Metrics))}
	for _, m := range rep.Metrics {
		res.Metrics[m.Name] = resultMetric{Value: m.Value, Unit: m.Unit}
	}
	return res
}

// printRun prints every metric of a run by name with its unit.
func printRun(w io.Writer, rep *runReport) {
	kind := "end-to-end, spans off"
	if rep.Trace {
		kind = "traced, per-layer"
	}
	fmt.Fprintf(w, "workload %s (%s) seed %d: %s %.3g x%d, %d nnz, %.1f MB CSR = %.2f x LLC",
		rep.Workload, kind, rep.Seed, rep.Matrix.Name, rep.Matrix.Scale, rep.Matrix.Rows, rep.Matrix.NNZ,
		float64(rep.Matrix.CSRBytes)/(1<<20), rep.LLCRatio)
	if rep.NonProbative {
		fmt.Fprint(w, " [non_probative for DRAM claims]")
	}
	fmt.Fprintln(w)
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if s := m.Within; s != nil {
			fmt.Fprintf(w, " n=%d median=%.6g q1=%.6g q3=%.6g", s.N, s.Median, s.Q1, s.Q3)
			if s.HiPct > 0 {
				fmt.Fprintf(w, " p%s=%.6g", strconv.FormatFloat(s.HiPct, 'g', -1, 64), s.Hi)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d, wall %.1f s\n", rep.Attempted, rep.Failed, rep.WallS)
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

// runAll runs every workload in its own process (so set-up time and
// peak RSS are per workload): `runs` end-to-end runs on consecutive
// seeds plus one traced run each, merged into one report.
func runAll(stdout io.Writer, seed uint64, seconds float64, runs int, smoke bool, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	full := fullReport{Schema: reportSchema, Seed: seed, Runs: runs, Smoke: smoke}
	failed := 0
	for _, w := range workloads() {
		wr := workloadReport{Name: w.Name, Why: w.Why}
		child := func(s uint64, trace bool) (*runReport, error) {
			t := "0"
			if trace {
				t = "1"
			}
			args := []string{"-workload", w.Name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-out", outDir}
			if smoke {
				args = append(args, "-smoke")
			}
			// The child's own table is dropped; its report file is read
			// back and merged below.
			path := runReportPath(outDir, w.Name, s, trace)
			os.Remove(path) //nolint:errcheck // a stale report must not stand in for a failed child
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			var rep runReport
			raw, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(raw, &rep)
			}
			if err != nil {
				return nil, errors.Join(runErr, err)
			}
			fmt.Fprintf(stdout, "%s seed %d trace %s: %.1f s, %d ops, %d failed\n", w.Name, s, t, rep.WallS, rep.Attempted, rep.Failed)
			return &rep, nil
		}
		var reps []*runReport
		for i := 0; i < runs; i++ {
			rep, err := child(seed+uint64(i), false)
			if err != nil {
				return err
			}
			reps = append(reps, rep)
		}
		traced, err := child(seed, true)
		if err != nil {
			return err
		}
		wr.merge(reps, traced)
		failed += wr.Failed
		full.Host = traced.Host
		full.Workloads = append(full.Workloads, wr)
	}
	path := filepath.Join(outDir, "report.json")
	if err := writeJSON(path, full); err != nil {
		return err
	}
	printFull(stdout, &full)
	fmt.Fprintln(stdout, "report written to", path)
	if failed > 0 {
		return exitError{failed}
	}
	return nil
}
