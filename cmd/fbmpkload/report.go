package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"fbmpk/internal/bench"
)

// Load-test reporting: the machine-readable record an fbmpkload run
// writes and CI gates on. One LoadReport holds a latency-vs-offered-
// QPS curve — one LoadPoint per fixed-rate open-loop stage — which is
// the "serves heavy traffic" claim in regression-checkable form: the
// curve's p99 knee moving left between runs is a serving regression
// even when single-request latency is unchanged.

// LoadReport is the result of one load-generator invocation against a
// running fbmpkd.
type LoadReport struct {
	SchemaVersion int            `json:"schema_version"`
	Timestamp     string         `json:"timestamp,omitempty"`
	Host          bench.HostInfo `json:"host"`
	// Target is the daemon base URL the load was offered to.
	Target string `json:"target"`
	// Matrix describes the workload matrix (generator spec or file).
	Matrix string `json:"matrix"`
	// MatrixKey is the daemon-side fingerprint key requests referenced.
	MatrixKey string `json:"matrix_key,omitempty"`
	// Mix is the deterministic request cycle, e.g. ["mpk","mpk","sspmv"].
	Mix []string `json:"mix"`
	// K is the MPK power / SSpMV degree of the request mix.
	K int `json:"k"`
	// Deadline is the per-request timeout the generator asked for.
	Deadline time.Duration `json:"deadline_ns"`
	// Points are the per-offered-QPS stages, in run order.
	Points []LoadPoint `json:"points"`
}

// LoadPoint is one fixed-duration open-loop stage at a fixed offered
// rate. Latency quantiles are computed over completed (2xx) requests.
type LoadPoint struct {
	OfferedQPS float64       `json:"offered_qps"`
	Duration   time.Duration `json:"duration_ns"`

	Sent     int `json:"sent"`
	OK       int `json:"ok"`
	Rejected int `json:"rejected"` // 429: shed at the admission gate
	Deadline int `json:"deadline"` // 504: per-request deadline exceeded
	Errors   int `json:"errors"`   // transport failures + any other non-2xx

	// AchievedQPS is completed requests over the stage duration; an
	// achieved rate far under the offered one means the daemon is past
	// saturation at this point of the curve.
	AchievedQPS float64 `json:"achieved_qps"`

	P50 time.Duration `json:"p50_ns"`
	P90 time.Duration `json:"p90_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`

	// Worst lists the stage's worst-latency requests (any outcome,
	// slowest first) with their trace IDs, so a bad point in the curve
	// links directly to a server-side timeline in the daemon's
	// /v1/debug/requests or access log.
	Worst []WorstRequest `json:"worst,omitempty"`
}

// WorstRequest correlates one slow request of a load stage with its
// server-side observability records by trace ID.
type WorstRequest struct {
	Op      string        `json:"op"`
	Outcome string        `json:"outcome"`
	TraceID string        `json:"trace_id"`
	Latency time.Duration `json:"latency_ns"`
}

// NewLoadReport stamps a report skeleton.
func NewLoadReport(target, matrix string) *LoadReport {
	return &LoadReport{
		SchemaVersion: 1,
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		Host:          bench.Host(),
		Target:        target,
		Matrix:        matrix,
	}
}

// MakeLoadPoint reduces one stage's completed-request latencies into a
// LoadPoint. lat must hold one entry per OK request; it is sorted in
// place.
func MakeLoadPoint(offered float64, dur time.Duration, sent, rejected, deadline, errs int, lat []time.Duration) LoadPoint {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p := LoadPoint{
		OfferedQPS: offered,
		Duration:   dur,
		Sent:       sent,
		OK:         len(lat),
		Rejected:   rejected,
		Deadline:   deadline,
		Errors:     errs,
	}
	if dur > 0 {
		p.AchievedQPS = float64(len(lat)) / dur.Seconds()
	}
	if len(lat) > 0 {
		p.P50 = LatencyQuantile(lat, 0.50)
		p.P90 = LatencyQuantile(lat, 0.90)
		p.P99 = LatencyQuantile(lat, 0.99)
		p.Max = lat[len(lat)-1]
	}
	return p
}

// LatencyQuantile returns the nearest-rank q-quantile of an ascending
// latency slice: the ⌈q·n⌉-th smallest entry (0 when empty).
func LatencyQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// WriteJSON renders the report as indented JSON.
func (r *LoadReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadLoadReport parses a report written by WriteJSON.
func ReadLoadReport(rd io.Reader) (*LoadReport, error) {
	var r LoadReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("parsing load report: %w", err)
	}
	return &r, nil
}

// Check is the CI gate over a load report: every stage must have
// offered real load, completed requests with a finite positive p99,
// and seen zero hard errors (shed 429s and per-request deadline
// misses are legitimate backpressure outcomes, not errors — but a
// stage where nothing completed at all is a dead daemon).
func (r *LoadReport) Check() error {
	if len(r.Points) == 0 {
		return fmt.Errorf("load report has no QPS points")
	}
	for _, p := range r.Points {
		if p.Sent <= 0 {
			return fmt.Errorf("qps=%g: no requests sent", p.OfferedQPS)
		}
		if p.Errors > 0 {
			return fmt.Errorf("qps=%g: %d hard errors out of %d requests", p.OfferedQPS, p.Errors, p.Sent)
		}
		if p.OK <= 0 {
			return fmt.Errorf("qps=%g: no requests completed (%d sent, %d rejected, %d deadline)",
				p.OfferedQPS, p.Sent, p.Rejected, p.Deadline)
		}
		if p.P99 <= 0 || p.P99 > 24*time.Hour {
			return fmt.Errorf("qps=%g: p99 %v is not a finite positive latency", p.OfferedQPS, p.P99)
		}
		if p.OK+p.Rejected+p.Deadline+p.Errors != p.Sent {
			return fmt.Errorf("qps=%g: outcomes (%d ok + %d rejected + %d deadline + %d errors) do not account for %d sent",
				p.OfferedQPS, p.OK, p.Rejected, p.Deadline, p.Errors, p.Sent)
		}
	}
	return nil
}
