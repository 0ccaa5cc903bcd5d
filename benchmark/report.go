package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// fullReport is the all-workloads report: what `go run ./benchmark`
// writes and what -compare reads.
type fullReport struct {
	Schema    string           `json:"schema"`
	Seed      uint64           `json:"seed"`
	Runs      int              `json:"runs"`
	Smoke     bool             `json:"smoke,omitempty"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name         string      `json:"name"`
	Why          string      `json:"why"`
	Matrix       matrixInfo  `json:"matrix"`
	StandIn      *matrixInfo `json:"stand_in_matrix,omitempty"`
	LLCRatio     float64     `json:"llc_ratio"`
	NonProbative bool        `json:"non_probative"`
	Attempted    int         `json:"attempted"`
	Failed       int         `json:"failed"`
	Failures     []string    `json:"failures,omitempty"`
	// EndToEnd carries one value per run; PerLayer the traced run's.
	EndToEnd []acrossRuns  `json:"end_to_end"`
	PerLayer []metricValue `json:"per_layer"`
}

// acrossRuns is one end-to-end metric over the runs of a report: the
// value of every run, their median and quartiles (the method of
// Python's statistics.quantiles, which the driver uses), and the
// interquartile spread as a share of the median.
type acrossRuns struct {
	metricDef
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	// Within is the first run's within-run summary of the samples
	// behind its value.
	Within *summary `json:"within,omitempty"`
}

// quartiles returns the exclusive-method quartiles of values, as
// statistics.quantiles(values, n=4) computes them. One value has no
// spread: all three collapse onto it.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(n-1, j))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func (wr *workloadReport) merge(runs []*runReport, traced *runReport) {
	first := runs[0]
	wr.Matrix, wr.StandIn, wr.LLCRatio, wr.NonProbative = first.Matrix, first.StandIn, first.LLCRatio, first.NonProbative
	for _, rep := range append(runs, traced) {
		wr.Attempted += rep.Attempted
		wr.Failed += rep.Failed
		wr.Failures = append(wr.Failures, rep.Failures...)
	}
	for i, m := range first.Metrics {
		ar := acrossRuns{metricDef: m.metricDef, Within: m.Within}
		for _, rep := range runs {
			ar.Values = append(ar.Values, rep.Metrics[i].Value)
		}
		ar.Q1, ar.Median, ar.Q3 = quartiles(ar.Values)
		ar.Spread = (ar.Q3 - ar.Q1) / ar.Median
		wr.EndToEnd = append(wr.EndToEnd, ar)
	}
	wr.PerLayer = traced.Metrics
}

func printFull(w io.Writer, full *fullReport) {
	for _, wr := range full.Workloads {
		fmt.Fprintf(w, "\n== %s: %s %.3g, %d rows, %d nnz, %.1f MB CSR = %.2f x LLC", wr.Name, wr.Matrix.Name,
			wr.Matrix.Scale, wr.Matrix.Rows, wr.Matrix.NNZ, float64(wr.Matrix.CSRBytes)/(1<<20), wr.LLCRatio)
		if wr.NonProbative {
			fmt.Fprint(w, " [non_probative for DRAM claims]")
		}
		fmt.Fprintf(w, "\n   end to end (spans off, median of %d runs; q1..q3; spread = IQR/median; bound)\n", full.Runs)
		for _, m := range wr.EndToEnd {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s %.6g..%.6g spread %.3f bound %.2f\n",
				m.Name, m.Median, m.Unit, m.Q1, m.Q3, m.Spread, m.Bound)
		}
		fmt.Fprintln(w, "   per layer (traced run)")
		for _, m := range wr.PerLayer {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s", m.Name, m.Value, m.Unit)
			if m.Within != nil {
				fmt.Fprintf(w, " n=%d", m.Within.N)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "   ops attempted %d, failed %d\n", wr.Attempted, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintln(w, "   FAILED:", f)
		}
	}
}

func readFull(path string) (*fullReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var full fullReport
	if err := json.Unmarshal(raw, &full); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if full.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, full.Schema, reportSchema)
	}
	return &full, nil
}

// Verdicts of one (metric, workload) row.
const (
	verdictBetter     = "better"
	verdictWithin     = "within-bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares one end-to-end metric between two reports using
// the metric's own bound and the recorded run-to-run quartiles:
//
//   - unresolved when either side's interquartile spread is wider than
//     the bound — the runs cannot tell a regression of that size from
//     noise — unless every new run reads better than every old run;
//   - regressed when the new median is worse than the old by more than
//     the bound;
//   - better when the new median is better by more than the old runs'
//     own spread (and by more than the new runs' spread);
//   - within-bound otherwise.
func verdict(old, new acrossRuns) (string, float64) {
	sign := 1.0
	if old.Better == higher {
		sign = -1
	}
	// worse > 0 means the new median is worse, as a share of the old.
	worse := sign * (new.Median - old.Median) / old.Median
	allBetter := len(old.Values) > 0 && len(new.Values) > 0
	for _, nv := range new.Values {
		for _, ov := range old.Values {
			if sign*(nv-ov) >= 0 {
				allBetter = false
			}
		}
	}
	spread := math.Max(old.Spread, new.Spread)
	switch {
	case allBetter && len(old.Values) > 1 && len(new.Values) > 1:
		return verdictBetter, worse
	case spread > old.Bound:
		return verdictUnresolved, worse
	case worse > old.Bound:
		return verdictRegressed, worse
	case -worse > spread && len(old.Values) > 1:
		return verdictBetter, worse
	}
	return verdictWithin, worse
}

// compareFiles prints one row per (end-to-end metric, workload) and
// fails when any row regressed.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldRep, err := readFull(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readFull(newPath)
	if err != nil {
		return err
	}
	newBy := map[string]workloadReport{}
	for _, wr := range newRep.Workloads {
		newBy[wr.Name] = wr
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "%-11s %-16s %13s %13s %8s %7s %6s  %s\n", "workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, ow := range oldRep.Workloads {
		nw, ok := newBy[ow.Name]
		if !ok {
			return fmt.Errorf("workload %s is missing from %s", ow.Name, newPath)
		}
		newMetric := map[string]acrossRuns{}
		for _, m := range nw.EndToEnd {
			newMetric[m.Name] = m
		}
		for _, om := range ow.EndToEnd {
			nm, ok := newMetric[om.Name]
			if !ok {
				return fmt.Errorf("metric %s of workload %s is missing from %s", om.Name, ow.Name, newPath)
			}
			v, worse := verdict(om, nm)
			counts[v]++
			// change is signed so that + always means worse.
			fmt.Fprintf(w, "%-11s %-16s %13.6g %13.6g %+7.1f%% %6.1f%% %5.0f%%  %s\n", ow.Name, om.Name,
				om.Median, nm.Median, 100*worse, 100*math.Max(om.Spread, nm.Spread), 100*om.Bound, v)
		}
		if nw.Failed > 0 || ow.Failed > 0 {
			fmt.Fprintf(w, "%-11s failed ops: old %d, new %d\n", ow.Name, ow.Failed, nw.Failed)
		}
	}
	fmt.Fprintf(w, "%d better, %d within-bound, %d unresolved, %d regressed (change: + is worse)\n",
		counts[verdictBetter], counts[verdictWithin], counts[verdictUnresolved], counts[verdictRegressed])
	if counts[verdictRegressed] > 0 {
		return fmt.Errorf("%d (metric, workload) rows regressed", counts[verdictRegressed])
	}
	return nil
}
