package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fbmpk"
	"fbmpk/internal/mmio"
)

// testMatrix is the small suite matrix every daemon test serves.
func testMatrix(t *testing.T) *fbmpk.Matrix {
	t.Helper()
	a, err := fbmpk.GenerateSuiteMatrix("cant", 0.004, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

var testPlanOpts = []fbmpk.Option{fbmpk.WithThreads(2)}

// newTestServer stands up a daemon over httptest with deterministic
// plan options and returns it with its base URL.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.PlanOptions = testPlanOpts
	s := New(cfg)
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hts.Close()
		s.Close()
	})
	return s, hts
}

// uploadTestMatrix posts the test matrix's generator spec and returns
// the key.
func uploadTestMatrix(t *testing.T, base string) string {
	t.Helper()
	return uploadSpec(t, base, GeneratorSpec{Name: "cant", Scale: 0.004, Seed: 1}).Key
}

// uploadSpec posts a generator spec and returns the daemon's answer.
func uploadSpec(t testing.TB, base string, spec GeneratorSpec) UploadResponse {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/matrix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload: %s: %s", resp.Status, b)
	}
	var up UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if up.Key == "" || up.Rows == 0 || up.NNZ == 0 {
		t.Fatalf("implausible upload response: %+v", up)
	}
	return up
}

// postOp sends one operation request and decodes either response shape.
func postOp(t *testing.T, base, op string, req OpRequest) (int, *OpResponse, *ErrorResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/"+op, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		var out OpResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding OK body %q: %v", raw, err)
		}
		return resp.StatusCode, &out, nil
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(raw, &eresp); err != nil {
		t.Fatalf("decoding error body %q: %v", raw, err)
	}
	return resp.StatusCode, nil, &eresp
}

func TestUploadGeneratorAndMatrixMarket(t *testing.T) {
	_, hts := newTestServer(t, Config{})
	key := uploadTestMatrix(t, hts.URL)

	// Re-uploading the same spec must dedup onto the same key.
	spec, _ := json.Marshal(GeneratorSpec{Name: "cant", Scale: 0.004, Seed: 1})
	resp, err := http.Post(hts.URL+"/v1/matrix", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var again UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if again.Key != key || !again.Cached {
		t.Fatalf("re-upload: key %s cached=%v, want %s cached=true", again.Key, again.Cached, key)
	}

	// The same matrix shipped as a MatrixMarket body lands on the same
	// fingerprint: the key is content-derived, not transport-derived.
	var mm bytes.Buffer
	if err := mmio.Write(&mm, testMatrix(t)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(hts.URL+"/v1/matrix", "text/plain", &mm)
	if err != nil {
		t.Fatal(err)
	}
	var mmUp UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&mmUp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mmUp.Key != key {
		t.Fatalf("MatrixMarket upload key %s != generator key %s", mmUp.Key, key)
	}

	// Garbage bodies are 400s, not parse panics.
	resp, err = http.Post(hts.URL+"/v1/matrix", "text/plain", strings.NewReader("not a matrix"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload: %s, want 400", resp.Status)
	}
}

func TestOpsMatchDirectPlanBitwise(t *testing.T) {
	_, hts := newTestServer(t, Config{})
	key := uploadTestMatrix(t, hts.URL)

	a := testMatrix(t)
	plan, err := fbmpk.NewPlan(a, testPlanOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()

	const k = 5
	want, err := plan.MPK(DefaultVector(a.Rows), k)
	if err != nil {
		t.Fatal(err)
	}

	status, out, eresp := postOp(t, hts.URL, "mpk", OpRequest{Matrix: key, K: k})
	if status != http.StatusOK {
		t.Fatalf("mpk: %d %+v", status, eresp)
	}
	if len(out.Result) != len(want) {
		t.Fatalf("mpk result length %d, want %d", len(out.Result), len(want))
	}
	for i := range want {
		if out.Result[i] != want[i] {
			t.Fatalf("mpk result[%d] = %v, want %v (bitwise)", i, out.Result[i], want[i])
		}
	}

	// The checksum shape must digest exactly the full-result vector.
	status, sum, _ := postOp(t, hts.URL, "mpk", OpRequest{Matrix: key, K: k, Return: ReturnChecksum})
	if status != http.StatusOK {
		t.Fatalf("mpk checksum request: %d", status)
	}
	if sum.Checksum != Checksum(want) {
		t.Fatalf("checksum %s != direct %s", sum.Checksum, Checksum(want))
	}
	if sum.Result != nil {
		t.Fatal("checksum response carried a full result")
	}
}

func TestOpErrors(t *testing.T) {
	_, hts := newTestServer(t, Config{})
	key := uploadTestMatrix(t, hts.URL)

	status, _, eresp := postOp(t, hts.URL, "mpk", OpRequest{Matrix: "nope", K: 1})
	if status != http.StatusNotFound || eresp.Kind != KindNotFound {
		t.Fatalf("unknown key: %d %+v", status, eresp)
	}
	status, _, eresp = postOp(t, hts.URL, "mpk", OpRequest{Matrix: key, K: -3})
	if status != http.StatusBadRequest || eresp.Kind != KindBadRequest {
		t.Fatalf("bad power: %d %+v", status, eresp)
	}
	status, _, eresp = postOp(t, hts.URL, "sspmv", OpRequest{Matrix: key})
	if status != http.StatusBadRequest || eresp.Kind != KindBadRequest {
		t.Fatalf("empty coeffs: %d %+v", status, eresp)
	}
	resp, err := http.Post(hts.URL+"/v1/mpk", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON: %s, want 400", resp.Status)
	}
}

// TestDeadlineExceeded pins the satellite contract: an expired
// per-request deadline surfaces as 504 whose error text carries the
// wrapped context.DeadlineExceeded message from the ctx-aware
// acquire/execute path.
func TestDeadlineExceeded(t *testing.T) {
	_, hts := newTestServer(t, Config{})
	key := uploadTestMatrix(t, hts.URL)

	// Warm the plan so a second run exercises the execution path too.
	if status, _, e := postOp(t, hts.URL, "mpk", OpRequest{Matrix: key, K: 2, Return: ReturnNone}); status != http.StatusOK {
		t.Fatalf("warm mpk: %d %+v", status, e)
	}

	// 1ns effective deadline: expired before acquire, regardless of
	// scheduling.
	status, _, eresp := postOp(t, hts.URL, "mpk", OpRequest{Matrix: key, K: 2, TimeoutMS: 1e-6})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504 (%+v)", status, eresp)
	}
	if eresp.Kind != KindDeadline {
		t.Fatalf("expired deadline: kind %q, want %q", eresp.Kind, KindDeadline)
	}
	if !strings.Contains(eresp.Error, "context deadline exceeded") {
		t.Fatalf("error %q does not surface the wrapped context.DeadlineExceeded", eresp.Error)
	}
}

// TestAdmissionSheds pins the backpressure contract deterministically:
// with the single admission slot held, an op request is shed with
// 429 + Retry-After and the overload error kind; releasing the slot
// readmits.
func TestAdmissionSheds(t *testing.T) {
	s, hts := newTestServer(t, Config{MaxInFlight: 1})
	key := uploadTestMatrix(t, hts.URL)

	if !s.adm.tryEnter() {
		t.Fatal("could not occupy the only admission slot")
	}
	body, _ := json.Marshal(OpRequest{Matrix: key, K: 1, Return: ReturnNone})
	resp, err := http.Post(hts.URL+"/v1/mpk", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated gate: %s, want 429 (%s)", resp.Status, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(raw, &eresp); err != nil || eresp.Kind != KindOverload {
		t.Fatalf("429 body %q, want kind %q", raw, KindOverload)
	}
	if got := s.adm.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	s.adm.leave()
	if status, _, e := postOp(t, hts.URL, "mpk", OpRequest{Matrix: key, K: 1, Return: ReturnNone}); status != http.StatusOK {
		t.Fatalf("after release: %d %+v", status, e)
	}
}

// TestGracefulDrain pins the SIGTERM contract at the http.Server
// layer: Shutdown must let already-admitted solves finish, and their
// responses must be bitwise-identical to direct Plan calls.
func TestGracefulDrain(t *testing.T) {
	cfg := Config{PlanOptions: testPlanOpts}
	s := New(cfg)
	defer s.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer(s.Handler())
	// Count requests the server has started reading: a connection the
	// client holds but the accept loop has not reached yet sits in the
	// listen backlog and is reset when Shutdown closes the listener.
	var accepted atomic.Int32
	hs.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateActive {
			accepted.Add(1)
		}
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	key := uploadTestMatrix(t, base)
	a := testMatrix(t)
	plan, err := fbmpk.NewPlan(a, testPlanOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	const k = 24
	want, err := plan.MPK(DefaultVector(a.Rows), k)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := Checksum(want)

	// Warm the plan cache so in-flight requests spend their time in
	// execution, not in a build.
	if status, _, e := postOp(t, base, "mpk", OpRequest{Matrix: key, K: 1, Return: ReturnNone}); status != http.StatusOK {
		t.Fatalf("warm: %d %+v", status, e)
	}

	// A dedicated client so every connection is fresh: Shutdown reaps
	// pooled idle connections, which would force a mid-drain redial
	// into the closed listener.
	client := &http.Client{}
	var connected atomic.Int32
	const clients = 4
	acceptedBefore := accepted.Load()
	type result struct {
		status int
		sum    string
	}
	results := make(chan result, clients)
	for i := 0; i < clients; i++ {
		go func() {
			body, _ := json.Marshal(OpRequest{Matrix: key, K: k, Return: ReturnChecksum})
			req, err := http.NewRequest(http.MethodPost, base+"/v1/mpk", bytes.NewReader(body))
			if err != nil {
				results <- result{status: -1}
				return
			}
			req.Header.Set("Content-Type", "application/json")
			trace := &httptrace.ClientTrace{
				GotConn: func(httptrace.GotConnInfo) { connected.Add(1) },
			}
			resp, err := client.Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
			if err != nil {
				results <- result{status: -1}
				return
			}
			defer resp.Body.Close()
			var out OpResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				results <- result{status: -2}
				return
			}
			results <- result{status: resp.StatusCode, sum: out.Checksum}
		}()
	}

	// Wait until every client holds an established connection and the
	// server is reading its request — an active connection is drained to
	// completion, one still dialing or still in the backlog would be
	// refused — and the work is genuinely in flight, then drain. If the machine is fast enough that requests
	// already finished, the drain still has to come back clean.
	for i := 0; i < 20000 && (connected.Load() < clients || accepted.Load()-acceptedBefore < clients); i++ {
		time.Sleep(100 * time.Microsecond)
	}
	for i := 0; i < 1000 && s.adm.inFlight() == 0; i++ {
		time.Sleep(100 * time.Microsecond)
	}
	if err := Shutdown(hs, 30*time.Second); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}

	for i := 0; i < clients; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request %d: status %d, want 200 (drain must finish admitted work)", i, r.status)
		}
		if r.sum != wantSum {
			t.Fatalf("in-flight request %d: checksum %s, want %s (bitwise vs direct plan)", i, r.sum, wantSum)
		}
	}

	// The drained listener accepts nothing new.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("request succeeded after Shutdown")
	}
}

// TestConcurrentClients hammers every op from many goroutines; run
// under -race this is the serving-path data-race gate. Responses must
// be either successes with the one bitwise-deterministic checksum per
// op, or clean 429 sheds.
func TestConcurrentClients(t *testing.T) {
	s, hts := newTestServer(t, Config{MaxInFlight: 3})
	key := uploadTestMatrix(t, hts.URL)

	a := testMatrix(t)
	plan, err := fbmpk.NewPlan(a, testPlanOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	const k = 4
	wantMPK, err := plan.MPK(DefaultVector(a.Rows), k)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := []float64{1, 0.5, 0.25}
	wantSS, err := plan.SSpMV(coeffs, DefaultVector(a.Rows))
	if err != nil {
		t.Fatal(err)
	}
	wantSums := map[string]string{"mpk": Checksum(wantMPK), "sspmv": Checksum(wantSS)}

	reqs := map[string]OpRequest{
		"mpk":   {Matrix: key, K: k, Return: ReturnChecksum},
		"sspmv": {Matrix: key, Coeffs: coeffs, Return: ReturnChecksum},
		"solve": {Matrix: key, Sweeps: 2, Return: ReturnChecksum},
	}
	ops := []string{"mpk", "sspmv", "solve"}

	const clients, iters = 8, 6
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		shed     int
		failures []string
		solveSum string
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				op := ops[(c+i)%len(ops)]
				body, _ := json.Marshal(reqs[op])
				resp, err := http.Post(hts.URL+"/v1/"+op, "application/json", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("%s: transport: %v", op, err))
					mu.Unlock()
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					var out OpResponse
					if err := json.Unmarshal(raw, &out); err != nil {
						failures = append(failures, fmt.Sprintf("%s: decode: %v", op, err))
						break
					}
					if want, fixed := wantSums[op]; fixed && out.Checksum != want {
						failures = append(failures, fmt.Sprintf("%s: checksum %s, want %s", op, out.Checksum, want))
					}
					if op == "solve" {
						if solveSum == "" {
							solveSum = out.Checksum
						} else if out.Checksum != solveSum {
							failures = append(failures, fmt.Sprintf("solve: checksum %s, want %s", out.Checksum, solveSum))
						}
					}
				case http.StatusTooManyRequests:
					shed++
				default:
					failures = append(failures, fmt.Sprintf("%s: unexpected status %d: %s", op, resp.StatusCode, raw))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("%d failures, first: %s", len(failures), failures[0])
	}
	t.Logf("concurrent clients: %d requests, %d shed at the gate", clients*iters, shed)
	if got := s.adm.rejected.Load(); int(got) != shed {
		t.Fatalf("rejected counter %d != observed sheds %d", got, shed)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, hts := newTestServer(t, Config{})
	key := uploadTestMatrix(t, hts.URL)
	if status, _, e := postOp(t, hts.URL, "mpk", OpRequest{Matrix: key, K: 1, Return: ReturnNone}); status != http.StatusOK {
		t.Fatalf("mpk: %d %+v", status, e)
	}

	resp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`fbmpkd_requests_total{op="mpk",outcome="ok"} 1`,
		`fbmpkd_requests_total{op="upload",outcome="ok"} 1`,
		"fbmpkd_inflight 0",
		"fbmpkd_matrices 1",
		"fbmpk_cache_misses_total",
		"fbmpk_cache_canceled_total",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// postValues sends a MatrixMarket body to the values endpoint.
func postValues(t *testing.T, base, key string, a *fbmpk.Matrix) (int, *UpdateResponse, *ErrorResponse) {
	t.Helper()
	var mm bytes.Buffer
	if err := mmio.Write(&mm, a); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/matrix/"+key+"/values", "text/plain", &mm)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		var out UpdateResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding OK body %q: %v", raw, err)
		}
		return resp.StatusCode, &out, nil
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(raw, &eresp); err != nil {
		t.Fatalf("decoding error body %q: %v", raw, err)
	}
	return resp.StatusCode, nil, &eresp
}

// TestValuesUpdateEndpoint drives the mutable-matrix surface end to
// end: upload, solve, swap values in place, and verify the daemon
// serves the new values under the new key with the plan updated rather
// than rebuilt.
func TestValuesUpdateEndpoint(t *testing.T) {
	s, hts := newTestServer(t, Config{})
	key := uploadTestMatrix(t, hts.URL)

	status, op1, _ := postOp(t, hts.URL, "mpk", OpRequest{Matrix: key, K: 3, Return: ReturnChecksum})
	if status != http.StatusOK {
		t.Fatalf("mpk before update: status %d", status)
	}
	if op1.APIVersion != APIVersion {
		t.Fatalf("op response api_version %q, want %q", op1.APIVersion, APIVersion)
	}

	// Same structure, new values.
	a2 := testMatrix(t)
	for i := range a2.Val {
		a2.Val[i] = 1.5*a2.Val[i] + 0.25
	}
	status, up, _ := postValues(t, hts.URL, key, a2)
	if status != http.StatusOK {
		t.Fatalf("values update: status %d", status)
	}
	if up.APIVersion != APIVersion {
		t.Fatalf("update response api_version %q, want %q", up.APIVersion, APIVersion)
	}
	if !up.Updated {
		t.Fatal("unchanged structure reported as rebuild")
	}
	if up.OldKey != key || up.Key == key {
		t.Fatalf("key transition %s -> %s, want a move off %s", up.OldKey, up.Key, key)
	}
	if up.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", up.Epoch)
	}
	st := s.Registry().Stats()
	if st.Updated != 1 || st.Builds != 1 {
		t.Fatalf("registry Updated=%d Builds=%d, want 1, 1 (no rebuild)", st.Updated, st.Builds)
	}

	// The old key no longer serves; the new one answers with results
	// matching a from-scratch reference on the updated matrix.
	status, _, eresp := postOp(t, hts.URL, "mpk", OpRequest{Matrix: key, K: 3, Return: ReturnChecksum})
	if status != http.StatusNotFound || eresp.Kind != KindNotFound {
		t.Fatalf("old key after update: status %d kind %q", status, eresp.Kind)
	}
	status, op2, _ := postOp(t, hts.URL, "mpk", OpRequest{Matrix: up.Key, K: 3, Return: ReturnChecksum})
	if status != http.StatusOK {
		t.Fatalf("mpk after update: status %d", status)
	}
	ref, err := fbmpk.NewPlan(a2, testPlanOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.MPK(DefaultVector(a2.Rows), 3)
	if err != nil {
		t.Fatal(err)
	}
	if op2.Checksum != Checksum(want) {
		t.Fatalf("post-update checksum %s != reference %s", op2.Checksum, Checksum(want))
	}
	if op2.Checksum == op1.Checksum {
		t.Fatal("update did not change the served values")
	}

	// Structure delta: the endpoint still answers, via the rebuild
	// fallback.
	b, err := fbmpk.GenerateSuiteMatrix("cant", 0.002, 9)
	if err != nil {
		t.Fatal(err)
	}
	status, up2, _ := postValues(t, hts.URL, up.Key, b)
	if status != http.StatusOK {
		t.Fatalf("structure-delta update: status %d", status)
	}
	if up2.Updated {
		t.Fatal("structure delta reported as in-place update")
	}
	if got := s.Registry().Stats().Rebuilt; got != 1 {
		t.Fatalf("registry Rebuilt=%d, want 1", got)
	}

	// Unknown keys 404.
	status, _, eresp = postValues(t, hts.URL, "deadbeef", a2)
	if status != http.StatusNotFound || eresp.Kind != KindNotFound {
		t.Fatalf("unknown key: status %d kind %q", status, eresp.Kind)
	}
}

// TestLegacyPathRedirects verifies the unversioned aliases answer with
// a method-preserving permanent redirect to their /v1 twin.
func TestLegacyPathRedirects(t *testing.T) {
	_, hts := newTestServer(t, Config{})
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	for _, p := range []string{"/matrix", "/mpk", "/sspmv", "/solve", "/matrices"} {
		resp, err := client.Post(hts.URL+p, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusPermanentRedirect {
			t.Fatalf("%s: status %d, want 308", p, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != "/v1"+p {
			t.Fatalf("%s: Location %q, want %q", p, loc, "/v1"+p)
		}
	}

	// A client following the redirect reaches the real endpoint.
	spec, _ := json.Marshal(GeneratorSpec{Name: "cant", Scale: 0.004, Seed: 1})
	resp, err := http.Post(hts.URL+"/matrix", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("redirected upload: status %d", resp.StatusCode)
	}
	var up UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if up.Key == "" || up.APIVersion != APIVersion {
		t.Fatalf("redirected upload response: %+v", up)
	}
}

// registryPhases returns, per request in arrival order, how many
// registry.fingerprint, registry.hit and registry.build marks its
// timeline in the flight recorder carries.
func registryPhases(s *Server) [][3]int {
	slowest, _, _ := s.obs.flight.snapshot()
	sort.Slice(slowest, func(i, j int) bool { return slowest[i].Start.Before(slowest[j].Start) })
	out := make([][3]int, len(slowest))
	for i, e := range slowest {
		for _, p := range e.Phases {
			for j, name := range [3]string{"registry.fingerprint", "registry.hit", "registry.build"} {
				if p.Name == name {
					out[i][j]++
				}
			}
		}
	}
	return out
}

// TestOpAcquiresByKey: the store key is the plan key, so a request whose
// plan is cached reaches it by lookup — a registry.hit and no
// registry.fingerprint on its timeline — while the first request, and
// one that finds its plan evicted, go through the matrix and build
// exactly as before. A value update hashes its matrix once, and the key
// it answers with is the one the registry holds the plan under.
func TestOpAcquiresByKey(t *testing.T) {
	s, hts := newTestServer(t, Config{RegistryCapacity: 1})
	mpk := func(key string) string {
		t.Helper()
		status, out, eresp := postOp(t, hts.URL, "mpk", OpRequest{Matrix: key, K: 3, Return: ReturnChecksum})
		if status != http.StatusOK {
			t.Fatalf("mpk: %d %+v", status, eresp)
		}
		return out.Checksum
	}
	key := uploadTestMatrix(t, hts.URL) // request 0
	built, hit := mpk(key), mpk(key)    // 1 builds, 2 hits by key

	a2 := testMatrix(t)
	for i := range a2.Val {
		a2.Val[i] = 1.5*a2.Val[i] + 0.25
	}
	status, up, eresp := postValues(t, hts.URL, key, a2) // 3 swaps in place
	if status != http.StatusOK || !up.Updated || up.Key != fbmpk.PlanFingerprint(a2, testPlanOpts...).String() {
		t.Fatalf("values update: %d %+v %+v", status, up, eresp)
	}
	updated := mpk(up.Key) // 4 hits under the update's key

	// Another matrix takes the registry's only slot.
	other := uploadSpec(t, hts.URL, GeneratorSpec{Name: "cant", Scale: 0.004, Seed: 2}) // 5
	mpk(other.Key)                                                                      // 6 builds, evicting the updated plan
	rebuilt, hitAgain := mpk(up.Key), mpk(up.Key)                                       // 7 rebuilds from the stored matrix, 8 hits

	if built != hit || built == updated || updated != rebuilt || rebuilt != hitAgain {
		t.Fatalf("checksums: built %s hit %s | updated %s rebuilt %s hit %s", built, hit, updated, rebuilt, hitAgain)
	}
	got := registryPhases(s)
	want := [][3]int{{}, {1, 0, 1}, {0, 1, 0}, {1, 0, 0}, {0, 1, 0}, {}, {1, 0, 1}, {1, 0, 1}, {0, 1, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fingerprint/hit/build marks per request:\n got %v\nwant %v", got, want)
	}
	if st := s.Registry().Stats(); st.Hits != 3 || st.Builds != 3 || st.Updated != 1 {
		t.Fatalf("registry counters: %+v", st)
	}
}
