package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestMakeLoadPointQuantiles(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		// 1ms..100ms, shuffled deterministically; MakeLoadPoint sorts.
		lat[(i*37)%100] = time.Duration(i+1) * time.Millisecond
	}
	p := MakeLoadPoint(50, 2*time.Second, 104, 2, 1, 1, lat)
	if p.OK != 100 || p.Sent != 104 {
		t.Fatalf("counts: %+v", p)
	}
	if p.P50 != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", p.P50)
	}
	if p.P99 != 99*time.Millisecond {
		t.Fatalf("p99 = %v, want 99ms", p.P99)
	}
	if p.Max != 100*time.Millisecond {
		t.Fatalf("max = %v, want 100ms", p.Max)
	}
	if p.AchievedQPS != 50 {
		t.Fatalf("achieved = %g, want 50", p.AchievedQPS)
	}
}

// Nearest rank is ⌈q·n⌉, not q·n rounded to nearest: the two differ
// whenever frac(q·n) < 0.5, which under-reported p90/p99 by one rank.
func TestLatencyQuantileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		rank int
	}{
		{7, 0.90, 7},     // ⌈6.3⌉, was 6
		{160, 0.99, 159}, // ⌈158.4⌉, was 158
		{100, 0.50, 50},  // exact products keep their rank
		{3, 0.0, 1},      // clamped up
		{3, 1.5, 3},      // clamped down
	} {
		lat := make([]time.Duration, c.n)
		for i := range lat {
			lat[i] = time.Duration(i+1) * time.Millisecond
		}
		if got, want := LatencyQuantile(lat, c.q), time.Duration(c.rank)*time.Millisecond; got != want {
			t.Errorf("n=%d q=%g: got %v, want rank %d = %v", c.n, c.q, got, c.rank, want)
		}
	}
	if got := LatencyQuantile(nil, 0.99); got != 0 {
		t.Errorf("empty slice: got %v, want 0", got)
	}
}

func TestLoadReportRoundTripAndCheck(t *testing.T) {
	r := NewLoadReport("http://127.0.0.1:1", "cant@0.003")
	r.Mix = []string{"mpk", "sspmv"}
	r.K = 4
	lat := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	r.Points = append(r.Points, MakeLoadPoint(10, time.Second, 3, 0, 0, 0, lat))

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLoadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Check(); err != nil {
		t.Fatalf("healthy report failed Check: %v", err)
	}

	// Hard errors must fail the gate; shed/deadline outcomes must not.
	bad := *got
	bad.Points = []LoadPoint{MakeLoadPoint(10, time.Second, 4, 0, 0, 1, lat)}
	if err := bad.Check(); err == nil || !strings.Contains(err.Error(), "hard errors") {
		t.Fatalf("errors>0 passed Check: %v", err)
	}
	shed := *got
	shed.Points = []LoadPoint{MakeLoadPoint(10, time.Second, 5, 1, 1, 0, lat)}
	if err := shed.Check(); err != nil {
		t.Fatalf("backpressure outcomes failed Check: %v", err)
	}
	dead := *got
	dead.Points = []LoadPoint{MakeLoadPoint(10, time.Second, 2, 2, 0, 0, nil)}
	if err := dead.Check(); err == nil || !strings.Contains(err.Error(), "no requests completed") {
		t.Fatalf("all-rejected stage passed Check: %v", err)
	}
	empty := *got
	empty.Points = nil
	if err := empty.Check(); err == nil {
		t.Fatal("empty report passed Check")
	}
}
