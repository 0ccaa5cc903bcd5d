package expo

import (
	"bufio"
	"io"

	"fbmpk/internal/core"
)

// Daemon-side metric families of fbmpkd, rendered through the same
// hand-rolled writer the plan and registry families use, so the whole
// /metrics document comes off one lint-clean exposition path. Metrics
// are aggregates only: which request was slow, and its trace ID, is
// the flight recorder's (/v1/debug/requests).

// DaemonRequestCount is one (op, outcome) finished-request counter.
type DaemonRequestCount struct {
	Op      string
	Outcome string
	Count   uint64
}

// DaemonOpLatency is one (op, outcome) request-latency histogram.
type DaemonOpLatency struct {
	Op      string
	Outcome string
	Latency core.OpLatency
}

// DaemonSnapshot is the daemon-side metric state WriteDaemonMetrics
// renders. Callers pre-sort Requests and Latency for deterministic
// output.
type DaemonSnapshot struct {
	GoVersion      string
	APIVersion     string
	UptimeSeconds  float64
	InFlight       int
	AdmissionLimit int
	Matrices       int
	Rejected       uint64
	Requests       []DaemonRequestCount
	Latency        []DaemonOpLatency
}

// WriteDaemonMetrics renders the fbmpkd families as Prometheus text.
func WriteDaemonMetrics(w io.Writer, s DaemonSnapshot) error {
	pw := &promWriter{bw: bufio.NewWriter(w)}

	pw.family("fbmpkd_build_info", "Daemon build and wire-contract identity (value is always 1).", "gauge")
	pw.sample("fbmpkd_build_info", labels{{"go_version", s.GoVersion}, {"api_version", s.APIVersion}}, 1)

	pw.family("fbmpkd_requests_total", "Finished requests by op and outcome.", "counter")
	for _, c := range s.Requests {
		pw.sample("fbmpkd_requests_total", labels{{"op", c.Op}, {"outcome", c.Outcome}}, float64(c.Count))
	}
	pw.family("fbmpkd_rejected_total", "Requests shed at the admission gate (429).", "counter")
	pw.sample("fbmpkd_rejected_total", nil, float64(s.Rejected))
	pw.family("fbmpkd_inflight", "Currently admitted requests.", "gauge")
	pw.sample("fbmpkd_inflight", nil, float64(s.InFlight))
	pw.family("fbmpkd_admission_limit", "Admission gate capacity.", "gauge")
	pw.sample("fbmpkd_admission_limit", nil, float64(s.AdmissionLimit))
	pw.family("fbmpkd_matrices", "Resident uploaded matrices.", "gauge")
	pw.sample("fbmpkd_matrices", nil, float64(s.Matrices))
	pw.family("fbmpkd_uptime_seconds", "Seconds since daemon start.", "gauge")
	pw.sample("fbmpkd_uptime_seconds", nil, s.UptimeSeconds)

	pw.family("fbmpkd_request_seconds", "Request service time by op and outcome (log-linear buckets, 12.5% relative error).", "histogram")
	for _, l := range s.Latency {
		writeHistogram(pw, "fbmpkd_request_seconds", labels{{"op", l.Op}, {"outcome", l.Outcome}}, l.Latency)
	}

	if pw.err != nil {
		return pw.err
	}
	return pw.bw.Flush()
}
