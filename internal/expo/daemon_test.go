package expo

import (
	"strings"
	"testing"
	"time"

	"fbmpk/internal/core"
)

// daemonSnapshotFixture builds a deterministic daemon snapshot with
// two histogram series.
func daemonSnapshotFixture() DaemonSnapshot {
	var okHist, shedHist core.LatencyHist
	for _, d := range []time.Duration{
		900 * time.Microsecond, 1100 * time.Microsecond, 2 * time.Millisecond,
		3 * time.Millisecond, 40 * time.Millisecond,
	} {
		okHist.Observe(d)
	}
	shedHist.Observe(40 * time.Microsecond)
	return DaemonSnapshot{
		GoVersion:      "go1.22.0",
		APIVersion:     "v1",
		UptimeSeconds:  12.5,
		InFlight:       1,
		AdmissionLimit: 16,
		Matrices:       2,
		Rejected:       3,
		Requests: []DaemonRequestCount{
			{Op: "mpk", Outcome: "ok", Count: 5},
			{Op: "mpk", Outcome: "overload", Count: 3},
		},
		Latency: []DaemonOpLatency{
			{Op: "mpk", Outcome: "ok", Latency: okHist.Snapshot()},
			{Op: "mpk", Outcome: "overload", Latency: shedHist.Snapshot()},
		},
	}
}

func TestWriteDaemonMetricsFormatValid(t *testing.T) {
	var sb strings.Builder
	if err := WriteDaemonMetrics(&sb, daemonSnapshotFixture()); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, sb.String())

	find := func(name, labels string) *sample {
		for i := range samples {
			if samples[i].name == name && samples[i].labels == labels {
				return &samples[i]
			}
		}
		return nil
	}
	if s := find("fbmpkd_build_info", "go_version=go1.22.0,api_version=v1"); s == nil || s.value != 1 {
		t.Fatalf("fbmpkd_build_info missing or not 1: %+v", s)
	}
	if s := find("fbmpkd_requests_total", "op=mpk,outcome=ok"); s == nil || s.value != 5 {
		t.Fatalf("fbmpkd_requests_total{mpk,ok} wrong: %+v", s)
	}
	if s := find("fbmpkd_request_seconds_count", "op=mpk,outcome=ok"); s == nil || s.value != 5 {
		t.Fatalf("fbmpkd_request_seconds_count{mpk,ok} wrong: %+v", s)
	}
	if s := find("fbmpkd_request_seconds_bucket", "op=mpk,outcome=overload,le=+Inf"); s == nil || s.value != 1 {
		t.Fatalf("overload +Inf bucket wrong: %+v", s)
	}
}
