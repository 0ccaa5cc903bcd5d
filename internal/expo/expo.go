// Package expo renders PlanMetrics snapshots in the Prometheus text
// exposition format (version 0.0.4, the format every Prometheus-
// compatible scraper accepts). The writer is hand-rolled — the repo
// takes no dependency on a client library — and deterministic: metric
// families appear in a fixed order and series within a family are
// sorted by label value, so output is directly diffable and testable.
package expo

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"fbmpk/internal/core"
)

// PlanSnapshot pairs a plan's scrape label with its metrics snapshot.
type PlanSnapshot struct {
	Name    string
	Metrics core.PlanMetrics
}

// planLabels returns the base label set of a plan's series: the plan
// name plus, when the plan reports what its kernels execute on, the
// backend label ("csr", "sell", "bsr"; "split" for a forward-backward
// plan) on the same series.
// Snapshots without a backend (older callers) keep the plan-only
// label set, so existing scrapes are unchanged.
func planLabels(s PlanSnapshot, extra ...[2]string) labels {
	l := labels{{"plan", s.Name}}
	if s.Metrics.Backend != "" {
		l = append(l, [2]string{"backend", s.Metrics.Backend})
	}
	return append(l, extra...)
}

// WriteMetrics renders the snapshots as Prometheus text format: one
// series per plan (label plan="...") for the scalar counters and
// gauges, per-op call counters, per-phase wait/compute time, and one
// cumulative histogram per (plan, op) for call latency.
func WriteMetrics(w io.Writer, snaps ...PlanSnapshot) error {
	pw := &promWriter{bw: bufio.NewWriter(w)}

	pw.family("fbmpk_calls_total", "Successful plan executions by operation.", "counter")
	for _, s := range snaps {
		for _, op := range sortedKeys(s.Metrics.CallsByOp) {
			pw.sample("fbmpk_calls_total", planLabels(s, [2]string{"op", op}), float64(s.Metrics.CallsByOp[op]))
		}
	}

	pw.family("fbmpk_rejected_total", "Executions rejected at the admission gate after Close.", "counter")
	for _, s := range snaps {
		pw.sample("fbmpk_rejected_total", planLabels(s), float64(s.Metrics.Rejected))
	}
	pw.family("fbmpk_canceled_total", "Executions ended by context cancellation.", "counter")
	for _, s := range snaps {
		pw.sample("fbmpk_canceled_total", planLabels(s), float64(s.Metrics.Canceled))
	}
	pw.family("fbmpk_in_flight", "Executions currently admitted and running.", "gauge")
	for _, s := range snaps {
		pw.sample("fbmpk_in_flight", planLabels(s), float64(s.Metrics.InFlight))
	}

	pw.family("fbmpk_sweeps_total", "Pipeline sweeps executed (forward or backward passes).", "counter")
	for _, s := range snaps {
		pw.sample("fbmpk_sweeps_total", planLabels(s), float64(s.Metrics.Sweeps))
	}
	pw.family("fbmpk_spmvs_total", "SpMV-equivalents served (powers x vectors).", "counter")
	for _, s := range snaps {
		pw.sample("fbmpk_spmvs_total", planLabels(s), float64(s.Metrics.SpMVs))
	}
	pw.family("fbmpk_nnz_streamed_total", "Matrix nonzeros read from memory.", "counter")
	for _, s := range snaps {
		pw.sample("fbmpk_nnz_streamed_total", planLabels(s), float64(s.Metrics.NnzStreamed))
	}
	pw.family("fbmpk_matrix_nnz", "Nonzeros of the plan's matrix (traffic denominator).", "gauge")
	for _, s := range snaps {
		pw.sample("fbmpk_matrix_nnz", planLabels(s), float64(s.Metrics.MatrixNnz))
	}
	pw.family("fbmpk_reads_of_a", "End-to-end reads of A served so far.", "gauge")
	for _, s := range snaps {
		pw.sample("fbmpk_reads_of_a", planLabels(s), s.Metrics.ReadsOfA)
	}
	pw.family("fbmpk_reads_of_a_per_spmv", "Reads of A per SpMV-equivalent: the paper's headline metric (~1 standard, ~(k+1)/2k FBMPK).", "gauge")
	for _, s := range snaps {
		pw.sample("fbmpk_reads_of_a_per_spmv", planLabels(s), s.Metrics.ReadsPerSpMV)
	}

	pw.family("fbmpk_build_seconds", "One-off plan construction wall time by preprocessing stage.", "gauge")
	for _, s := range snaps {
		b := s.Metrics.Build
		for _, st := range []struct {
			stage string
			d     time.Duration
		}{
			{"total", b.Total}, {"graph", b.Graph},
			{"color", b.Color}, {"perm", b.Perm}, {"split", b.Split},
		} {
			if st.d == 0 && st.stage != "total" {
				continue // stage did not run for this plan shape
			}
			pw.sample("fbmpk_build_seconds", planLabels(s, [2]string{"stage", st.stage}), st.d.Seconds())
		}
	}

	pw.family("fbmpk_call_seconds_total", "Wall time spent inside engine executions.", "counter")
	for _, s := range snaps {
		pw.sample("fbmpk_call_seconds_total", planLabels(s), s.Metrics.CallTime.Seconds())
	}
	pw.family("fbmpk_phase_wait_seconds_total", "Per-worker barrier wait time by pipeline phase.", "counter")
	for _, s := range snaps {
		for _, ph := range sortedKeys(s.Metrics.PhaseWait) {
			pw.sample("fbmpk_phase_wait_seconds_total", planLabels(s, [2]string{"phase", ph}), s.Metrics.PhaseWait[ph].Seconds())
		}
	}
	pw.family("fbmpk_phase_compute_seconds_total", "Per-worker compute time by pipeline phase.", "counter")
	for _, s := range snaps {
		for _, ph := range sortedKeys(s.Metrics.PhaseCompute) {
			pw.sample("fbmpk_phase_compute_seconds_total", planLabels(s, [2]string{"phase", ph}), s.Metrics.PhaseCompute[ph].Seconds())
		}
	}
	pw.family("fbmpk_phase_ns_per_nnz", "Worker compute nanoseconds per matrix nonzero streamed, by pipeline phase (pooled plans).", "gauge")
	for _, s := range snaps {
		for _, ph := range sortedKeys(s.Metrics.NsPerNnz) {
			pw.sample("fbmpk_phase_ns_per_nnz", planLabels(s, [2]string{"phase", ph}), s.Metrics.NsPerNnz[ph])
		}
	}

	pw.family("fbmpk_op_latency_seconds", "Call duration by operation (log-linear buckets, 12.5% relative error).", "histogram")
	for _, s := range snaps {
		for _, op := range sortedKeys(s.Metrics.Latency) {
			writeHistogram(pw, planLabels(s), op, s.Metrics.Latency[op])
		}
	}
	if pw.err != nil {
		return pw.err
	}
	return pw.bw.Flush()
}

func writeHistogram(pw *promWriter, base labels, op string, lat core.OpLatency) {
	with := func(extra ...[2]string) labels {
		return append(append(labels(nil), base...), extra...)
	}
	for _, b := range lat.Buckets {
		pw.sample("fbmpk_op_latency_seconds_bucket",
			with([2]string{"op", op}, [2]string{"le", formatFloat(b.Le.Seconds())}),
			float64(b.Count))
	}
	pw.sample("fbmpk_op_latency_seconds_bucket",
		with([2]string{"op", op}, [2]string{"le", "+Inf"}), float64(lat.Count))
	pw.sample("fbmpk_op_latency_seconds_sum", with([2]string{"op", op}), lat.Sum.Seconds())
	pw.sample("fbmpk_op_latency_seconds_count", with([2]string{"op", op}), float64(lat.Count))
}

type labels [][2]string

// promWriter emits format-valid lines and remembers the first error.
type promWriter struct {
	bw  *bufio.Writer
	err error
}

func (w *promWriter) family(name, help, typ string) {
	w.printf("# HELP %s %s\n", name, escapeHelp(help))
	w.printf("# TYPE %s %s\n", name, typ)
}

func (w *promWriter) sample(name string, ls labels, v float64) {
	w.sampleSuffix(name, ls, v, "")
}

// sampleSuffix emits a sample line with a trailing annotation (the
// OpenMetrics exemplar syntax); suffix "" is a plain sample.
func (w *promWriter) sampleSuffix(name string, ls labels, v float64, suffix string) {
	var sb strings.Builder
	sb.WriteString(name)
	if len(ls) > 0 {
		sb.WriteByte('{')
		for i, l := range ls {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l[0])
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(l[1]))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	w.printf("%s %s%s\n", sb.String(), formatFloat(v), suffix)
}

func (w *promWriter) printf(format string, args ...any) {
	if w.err != nil {
		return
	}
	_, w.err = fmt.Fprintf(w.bw, format, args...)
}

// formatFloat renders a sample value the way Prometheus parses it:
// shortest round-trip decimal, with the spec spellings of the
// non-finite values.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
