package fbmpk

// Tests of the observability tentpole: the debug HTTP surface
// (/metrics, /trace, /debug/pprof), trace capture under the
// concurrent-serving stress pattern, and the zero-cost-when-disabled
// contract of the trace recorder at the plan level.

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func getBody(t *testing.T, srv *httptest.Server, path string) (string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestDebugHandlerMetrics(t *testing.T) {
	a := concTestMatrix(t, 0.004)
	plan, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	rng := rand.New(rand.NewSource(3))
	x0 := randVec(rng, plan.N())
	for i := 0; i < 3; i++ {
		if _, err := plan.MPK(x0, 4); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(DebugHandler(plan))
	defer srv.Close()

	body, ctype := getBody(t, srv, "/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("metrics content type %q", ctype)
	}
	for _, want := range []string{
		`fbmpk_calls_total{plan="plan0",backend="split",op="mpk"} 3`,
		`fbmpk_reads_of_a_per_spmv{plan="plan0",backend="split"}`,
		`fbmpk_op_latency_seconds_bucket{plan="plan0",backend="split",op="mpk",le="+Inf"} 3`,
		`fbmpk_op_latency_seconds_count{plan="plan0",backend="split",op="mpk"} 3`,
		"# TYPE fbmpk_op_latency_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// Nothing publishes an expvar; the surface no longer mounts one.
	if resp, err := srv.Client().Get(srv.URL + "/debug/vars"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != 404 {
		t.Fatalf("GET /debug/vars: status %d, want 404", resp.StatusCode)
	}

	index, _ := getBody(t, srv, "/")
	if !strings.Contains(index, "/metrics") {
		t.Fatalf("index page missing endpoint list:\n%s", index)
	}
}

// chromeDoc mirrors the trace-event JSON for round-trip checks.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestDebugHandlerTraceRoundTrip(t *testing.T) {
	a := concTestMatrix(t, 0.004)
	plan, err := NewPlan(a, WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	rec := NewTraceRecorder(TraceConfig{Workers: plan.Workers()})
	if err := plan.StartTrace(rec); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x0 := randVec(rng, plan.N())
	const k = 4
	if _, err := plan.MPKCtx(context.Background(), x0, k); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(DebugHandler(plan))
	defer srv.Close()
	body, ctype := getBody(t, srv, "/trace")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("trace content type %q", ctype)
	}
	var doc chromeDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}

	// One traced MPK call at power k over nc colors crosses nc barriers
	// per sweep on every worker: the trace must hold at least one span
	// per color barrier (acceptance criterion), and exactly k sweep
	// spans plus one call span per lane involved.
	nc := plan.Ordering().NumColors
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			counts[ev.Cat]++
			if ev.Dur < 0 {
				t.Fatalf("negative span duration: %+v", ev)
			}
		}
	}
	if counts["barrier"] < nc*k {
		t.Fatalf("trace has %d barrier spans, want >= %d (nc=%d x k=%d)", counts["barrier"], nc*k, nc, k)
	}
	if counts["call"] != 1 {
		t.Fatalf("trace has %d call spans, want 1", counts["call"])
	}
	if counts["sweep"] != 4*k { // k sweeps on each of 4 workers
		t.Fatalf("trace has %d sweep spans, want %d", counts["sweep"], 4*k)
	}
	if plan.StopTrace() != rec {
		t.Fatal("StopTrace did not return the attached recorder")
	}
	if plan.TraceRecorder() != nil {
		t.Fatal("recorder still attached after StopTrace")
	}
}

// TestTraceConcurrentServing drives a shared traced plan from 12
// goroutines (the serving stress pattern of TestConcurrentSharedPlan)
// and audits the capture: per-lane spans are well-nested — compute and
// barrier spans never overlap within one execution, and every sweep
// span contains the compute/barrier spans recorded under it.
func TestTraceConcurrentServing(t *testing.T) {
	a := concTestMatrix(t, 0.004)
	plan, err := NewPlan(a, WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	rec := NewTraceRecorder(TraceConfig{PerLane: 1 << 15, Callers: 12, Workers: plan.Workers()})
	if err := plan.StartTrace(rec); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	x0 := randVec(rng, plan.N())
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch g % 3 {
				case 0:
					if _, err := plan.MPK(x0, 3); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := plan.SSpMV([]float64{1, 0.5, 0.25}, x0); err != nil {
						t.Error(err)
					}
				default:
					x := append([]float64(nil), x0...)
					if err := plan.SymGS(x0, x, 2); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if rec.Untraced() != 0 {
		t.Fatalf("%d executions ran untraced with 12 caller lanes", rec.Untraced())
	}
	if rec.Len() == 0 {
		t.Fatal("no events captured")
	}
	for lane := 0; lane < rec.Lanes(); lane++ {
		evs := rec.LaneEvents(lane)
		// Per (execution, lane): compute/barrier spans chain without
		// overlap, and sweep spans cover their members. Record order is
		// chronological per lane, so scan linearly per seq.
		type seqState struct {
			lastEnd int64
			pending []TraceEvent // compute/barrier since last sweep
		}
		states := map[uint64]*seqState{}
		for _, ev := range evs {
			st := states[ev.Seq]
			if st == nil {
				st = &seqState{}
				states[ev.Seq] = st
			}
			switch ev.Kind.String() {
			case "compute", "barrier":
				if int64(ev.Start) < st.lastEnd {
					t.Fatalf("lane %d seq %d: span starts before previous ends (%v < %v)", lane, ev.Seq, ev.Start, st.lastEnd)
				}
				st.lastEnd = int64(ev.End())
				st.pending = append(st.pending, ev)
			case "sweep":
				for _, m := range st.pending {
					if m.Start >= ev.Start && m.End() > ev.End() {
						t.Fatalf("lane %d seq %d: member span [%v,%v] escapes sweep [%v,%v]",
							lane, ev.Seq, m.Start, m.End(), ev.Start, ev.End())
					}
				}
				st.pending = st.pending[:0]
			}
		}
	}
}

// TestTraceRingBoundsMemory saturates a tiny recorder and checks the
// retained window never exceeds the configured capacity.
func TestTraceRingBoundsMemory(t *testing.T) {
	a := concTestMatrix(t, 0.004)
	plan, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	const perLane = 32
	rec := NewTraceRecorder(TraceConfig{PerLane: perLane, Callers: 2})
	if err := plan.StartTrace(rec); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x0 := randVec(rng, plan.N())
	for i := 0; i < 50; i++ {
		if _, err := plan.MPK(x0, 6); err != nil {
			t.Fatal(err)
		}
	}
	if max := rec.Lanes() * perLane; rec.Len() > max {
		t.Fatalf("recorder retains %d events, cap %d", rec.Len(), max)
	}
	if rec.Overwritten() == 0 {
		t.Fatal("saturating workload reported no overwrites")
	}
}

// TestTraceDisabledAddsNoAllocations compares the allocation profile
// of plan.MPK before attaching a recorder, while attached, and after
// detaching: the detached path must cost exactly what the
// never-attached path costs.
func TestTraceDisabledAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	a := concTestMatrix(t, 0.004)
	plan, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	rng := rand.New(rand.NewSource(8))
	x0 := randVec(rng, plan.N())
	run := func() {
		if _, err := plan.MPK(x0, 3); err != nil {
			t.Fatal(err)
		}
	}
	before := testing.AllocsPerRun(20, run)
	if err := plan.StartTrace(NewTraceRecorder(TraceConfig{})); err != nil {
		t.Fatal(err)
	}
	testing.AllocsPerRun(5, run)
	plan.StopTrace()
	after := testing.AllocsPerRun(20, run)
	if after != before {
		t.Fatalf("detached recorder changes allocations: %v before, %v after", before, after)
	}
}
