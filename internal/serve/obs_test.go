package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- flight recorder ---

func flightEntry(trace string, total time.Duration, outcome string) FlightEntry {
	return FlightEntry{TraceID: trace, Op: "mpk", Outcome: outcome, Status: 200, Total: total}
}

func TestFlightRecorderBoundsAndOrder(t *testing.T) {
	f := newFlightRecorder(4)
	// 10 successes with distinct latencies, offered out of order.
	for _, ms := range []int{5, 9, 1, 7, 3, 10, 2, 8, 4, 6} {
		f.observe(flightEntry(fmt.Sprintf("t%02d", ms), time.Duration(ms)*time.Millisecond, outcomeOK))
	}
	slowest, failures, seen := f.snapshot()
	if seen != 10 {
		t.Fatalf("seen = %d, want 10", seen)
	}
	if len(failures) != 0 {
		t.Fatalf("successes landed in the failure ring: %+v", failures)
	}
	if len(slowest) != 4 {
		t.Fatalf("retained %d slowest, want cap 4", len(slowest))
	}
	for i, want := range []string{"t10", "t09", "t08", "t07"} {
		if slowest[i].TraceID != want {
			t.Fatalf("slowest[%d] = %s, want %s (descending by Total)", i, slowest[i].TraceID, want)
		}
	}

	// 6 failures: the ring keeps the newest 4, newest first.
	for i := 0; i < 6; i++ {
		f.observe(flightEntry(fmt.Sprintf("f%d", i), time.Microsecond, KindOverload))
	}
	_, failures, _ = f.snapshot()
	if len(failures) != 4 {
		t.Fatalf("retained %d failures, want cap 4", len(failures))
	}
	for i, want := range []string{"f5", "f4", "f3", "f2"} {
		if failures[i].TraceID != want {
			t.Fatalf("failures[%d] = %s, want %s (newest first)", i, failures[i].TraceID, want)
		}
	}
}

func TestFlightRecorderSlowSetIsSorted(t *testing.T) {
	f := newFlightRecorder(8)
	for i := 0; i < 100; i++ {
		// A scrambled but deterministic latency sequence.
		d := time.Duration((i*37)%100+1) * time.Millisecond
		f.observe(flightEntry(fmt.Sprintf("t%03d", i), d, outcomeOK))
	}
	slowest, _, seen := f.snapshot()
	if seen != 100 || len(slowest) != 8 {
		t.Fatalf("seen=%d len=%d, want 100, 8", seen, len(slowest))
	}
	if !sort.SliceIsSorted(slowest, func(i, j int) bool { return slowest[i].Total > slowest[j].Total }) {
		t.Fatalf("snapshot not descending: %+v", slowest)
	}
	// The retained set must be the true top 8 of 1..100ms: 93..100.
	if slowest[0].Total != 100*time.Millisecond || slowest[7].Total != 93*time.Millisecond {
		t.Fatalf("top-8 wrong: %v .. %v", slowest[0].Total, slowest[7].Total)
	}
}

// TestFlightRecorderConcurrent is the -race gate over the recorder.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := newFlightRecorder(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				out := outcomeOK
				if i%3 == 0 {
					out = KindOverload
				}
				f.observe(flightEntry(fmt.Sprintf("g%d-%d", g, i), time.Duration(i)*time.Microsecond, out))
				if i%50 == 0 {
					f.snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	slowest, failures, seen := f.snapshot()
	if seen != 8*200 {
		t.Fatalf("seen = %d, want 1600", seen)
	}
	if len(slowest) > 16 || len(failures) > 16 {
		t.Fatalf("bounds breached: %d slowest, %d failures", len(slowest), len(failures))
	}
}

// --- Retry-After derivation ---

func TestRetryAfterFromServiceTime(t *testing.T) {
	s := New(Config{PlanOptions: testPlanOpts})
	defer s.Close()

	// No observations yet: floor of 1s.
	if got := s.retryAfterSecs("mpk"); got != 1 {
		t.Fatalf("empty histogram: Retry-After %d, want 1", got)
	}
	// Sub-second p50 still floors at 1.
	h := s.obs.hist("mpk", outcomeOK)
	for i := 0; i < 9; i++ {
		h.Observe(50 * time.Millisecond)
	}
	if got := s.retryAfterSecs("mpk"); got != 1 {
		t.Fatalf("fast op: Retry-After %d, want 1", got)
	}
	// A slow op quotes its own median, rounded up. The log-linear
	// buckets have 12.5% relative error, so observe well inside the
	// 2-3s ceiling band.
	h2 := s.obs.hist("solve", outcomeOK)
	for i := 0; i < 9; i++ {
		h2.Observe(2200 * time.Millisecond)
	}
	if got := s.retryAfterSecs("solve"); got < 2 || got > 3 {
		t.Fatalf("slow op: Retry-After %d, want ceil(p50) in [2,3]", got)
	}
	// Errored requests must not pollute the estimate.
	if got := s.retryAfterSecs("sspmv"); got != 1 {
		t.Fatalf("unknown op: Retry-After %d, want 1", got)
	}
}

// --- end-to-end trace correlation ---

// syncBuffer is a goroutine-safe log sink: the handler goroutines
// write while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceCorrelationEndToEnd is the acceptance check of request
// tracing: one request's trace ID must be observable in (1) the
// Traceparent response header, (2) the OpResponse body, (3) the
// structured access log, and (4) the /v1/debug/requests flight
// recorder with the admission/acquire/execute phase breakdown — and
// (5) nowhere else: /metrics holds aggregates only, and the daemon
// serves no /trace.
func TestTraceCorrelationEndToEnd(t *testing.T) {
	logBuf := &syncBuffer{}
	_, hts := newTestServer(t, Config{
		Logger: slog.New(slog.NewTextHandler(logBuf, nil)),
	})
	key := uploadTestMatrix(t, hts.URL)

	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	body, _ := json.Marshal(OpRequest{Matrix: key, K: 3, Return: ReturnChecksum})
	req, _ := http.NewRequest(http.MethodPost, hts.URL+"/v1/mpk", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceparentHeader, validTP)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mpk: %s: %s", resp.Status, raw)
	}

	// (1) Response header continues the trace under a fresh server span.
	echoed, err := ParseTraceparent(resp.Header.Get("Traceparent"))
	if err != nil {
		t.Fatalf("response Traceparent %q: %v", resp.Header.Get("Traceparent"), err)
	}
	if echoed.TraceIDString() != wantTrace {
		t.Fatalf("response trace ID %s, want %s (continued)", echoed.TraceIDString(), wantTrace)
	}
	sent, _ := ParseTraceparent(validTP)
	if echoed.SpanID == sent.SpanID {
		t.Fatal("daemon echoed the caller's span ID instead of minting its own")
	}

	// (2) Response body.
	var out OpResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != wantTrace {
		t.Fatalf("body trace_id %q, want %q", out.TraceID, wantTrace)
	}

	// (3) Access log.
	logText := logBuf.String()
	if !strings.Contains(logText, "trace_id="+wantTrace) {
		t.Fatalf("access log missing trace_id=%s:\n%s", wantTrace, logText)
	}
	if !strings.Contains(logText, "op=mpk") || !strings.Contains(logText, "status=200") {
		t.Fatalf("access log missing op/status attrs:\n%s", logText)
	}

	// (4) Flight recorder with the phase breakdown.
	dresp, err := http.Get(hts.URL + "/v1/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var dbg DebugRequestsResponse
	if err := json.NewDecoder(dresp.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dbg.APIVersion != APIVersion || dbg.RequestsSeen < 2 {
		t.Fatalf("debug response header wrong: %+v", dbg)
	}
	var entry *FlightEntry
	for i := range dbg.Slowest {
		if dbg.Slowest[i].TraceID == wantTrace {
			entry = &dbg.Slowest[i]
			break
		}
	}
	if entry == nil {
		t.Fatalf("trace %s not in /v1/debug/requests slowest set: %+v", wantTrace, dbg.Slowest)
	}
	if entry.Op != "mpk" || entry.Outcome != outcomeOK || entry.Total <= 0 {
		t.Fatalf("flight entry wrong: %+v", entry)
	}
	phases := map[string]bool{}
	for _, p := range entry.Phases {
		phases[p.Name] = true
	}
	for _, want := range []string{"decode", "acquire", "plan.admission", "plan.execute", "encode"} {
		if !phases[want] {
			t.Fatalf("flight entry missing phase %q, got %+v", want, entry.Phases)
		}
	}

	// (5) One home per fact: no trace ID in /metrics, no /trace.
	mresp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtext, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if strings.Contains(string(mtext), "trace_id") {
		t.Fatalf("/metrics carries a trace ID:\n%s", mtext)
	}
	tresp, err := http.Get(hts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusNotFound {
		t.Fatalf("/trace: %s, want 404", tresp.Status)
	}
}

// TestMalformedTraceparentRestartsTrace pins the restart semantics: a
// garbage header is not an error, the daemon just mints a fresh trace.
func TestMalformedTraceparentRestartsTrace(t *testing.T) {
	_, hts := newTestServer(t, Config{})
	key := uploadTestMatrix(t, hts.URL)

	body, _ := json.Marshal(OpRequest{Matrix: key, K: 1, Return: ReturnNone})
	req, _ := http.NewRequest(http.MethodPost, hts.URL+"/v1/mpk", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceparentHeader, "00-totally-not-a-trace")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("malformed traceparent must not fail the request: %s", resp.Status)
	}
	tc, err := ParseTraceparent(resp.Header.Get("Traceparent"))
	if err != nil {
		t.Fatalf("restarted trace header %q invalid: %v", resp.Header.Get("Traceparent"), err)
	}
	if strings.Contains(tc.TraceIDString(), "totally") {
		t.Fatal("daemon adopted a malformed trace ID")
	}
}

// TestErrorBodiesCarryTraceID checks the error path: 404s and sheds
// keep the correlation key, and shed traces land in the failure ring.
func TestErrorBodiesCarryTraceID(t *testing.T) {
	s, hts := newTestServer(t, Config{MaxInFlight: 1})

	status, _, eresp := postOp(t, hts.URL, "mpk", OpRequest{Matrix: "nope", K: 1})
	if status != http.StatusNotFound {
		t.Fatalf("unknown key: %d", status)
	}
	if len(eresp.TraceID) != 32 {
		t.Fatalf("404 body trace_id %q, want 32 hex chars", eresp.TraceID)
	}

	if !s.adm.tryEnter() {
		t.Fatal("could not occupy the admission slot")
	}
	key := uploadTestMatrix(t, hts.URL)
	status, _, eresp = postOp(t, hts.URL, "mpk", OpRequest{Matrix: key, K: 1})
	s.adm.leave()
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated gate: %d", status)
	}
	shedTrace := eresp.TraceID
	if len(shedTrace) != 32 {
		t.Fatalf("429 body trace_id %q, want 32 hex chars", shedTrace)
	}

	_, failures, _ := s.obs.flight.snapshot()
	for _, f := range failures {
		if f.TraceID == shedTrace && f.Outcome == KindOverload && f.Status == http.StatusTooManyRequests {
			return
		}
	}
	t.Fatalf("shed trace %s not in the failure ring: %+v", shedTrace, failures)
}

// --- overhead gate ---

// TestDetachedOverheadGate bounds what request observability costs: the
// instrumented request path against the stripped one on a checksum
// request that does a millisecond of kernel work, at 2 % plus this
// host's measured noise floor. The request it measures got cheaper when
// the registry hit stopped hashing, so the same absolute cost is a
// larger share, and a plain A/B of two medians cannot resolve it on a
// host whose speed moves by more than the bound. The measurement is the
// benchmark's: one daemon, one plan, and three arms — stripped, stripped
// again, instrumented — taking turns in interleaved blocks, a different
// one first each round. A round scores the instrumented block's median
// against the two stripped ones beside it, and the two stripped ones,
// which differ in nothing, against each other; the medians over the
// rounds are the overhead and the noise floor, and the floor is printed
// and added to the bound. Runs only when ci.sh asks for it
// via FBMPK_OVERHEAD_GATE=1.
func TestDetachedOverheadGate(t *testing.T) {
	if os.Getenv("FBMPK_OVERHEAD_GATE") == "" {
		t.Skip("set FBMPK_OVERHEAD_GATE=1 to run the tracing-overhead gate")
	}
	s, hts := newTestServer(t, Config{})
	up := uploadSpec(t, hts.URL, GeneratorSpec{Name: "cant", Scale: 0.05, Seed: 1})
	body, _ := json.Marshal(OpRequest{Matrix: up.Key, K: 4, Return: ReturnChecksum})
	request := func() time.Duration {
		start := time.Now()
		resp, err := http.Post(hts.URL+"/v1/mpk", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mpk: %s", resp.Status)
		}
		return time.Since(start)
	}
	const rounds, perBlock = 45, 9
	strip := [3]bool{true, true, false}
	lats := make([]time.Duration, perBlock)
	var overheads, floors []float64
	for r := -1; r < rounds; r++ { // round -1 is the warm-up
		var med [3]float64
		for k := range strip {
			arm := (r + 1 + k) % len(strip) // a different arm leads each round
			s.obs.disabled.Store(strip[arm])
			for i := range lats {
				lats[i] = request()
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			med[arm] = float64(lats[perBlock/2])
		}
		if r >= 0 {
			stripped := (med[0] + med[1]) / 2
			overheads = append(overheads, med[2]/stripped-1)
			floors = append(floors, math.Abs(med[0]-med[1])/stripped)
		}
	}
	sort.Float64s(overheads)
	sort.Float64s(floors)
	overhead, floor := overheads[rounds/2], floors[rounds/2]
	t.Logf("observability overhead on a checksum request, median of %d interleaved rounds: %.2f%% (rounds ranged %.2f%% to %.2f%%); "+
		"noise floor %.2f%%, the median disagreement of the two stripped arms; bound 2%% + floor",
		rounds, 100*overhead, 100*overheads[0], 100*overheads[rounds-1], 100*floor)
	if overhead > 0.02+floor {
		t.Fatalf("observability costs %.2f%% of a checksum request, over 2%% + the %.2f%% noise floor", 100*overhead, 100*floor)
	}
}
