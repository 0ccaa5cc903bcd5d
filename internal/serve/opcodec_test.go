package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"fbmpk/internal/events"
)

// sameBits reports whether two vectors agree in nil-ness, length and
// every bit pattern (reflect.DeepEqual would call -0 and +0 equal and
// NaN unequal to itself).
func sameBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkDecodeParity holds decodeOpRequest to json.Unmarshal on one
// body: same accept/reject and error text, same fields, floats bitwise.
func checkDecodeParity(t *testing.T, body []byte) {
	t.Helper()
	var want, got OpRequest
	wantErr := json.Unmarshal(body, &want)
	gotErr := decodeOpRequest(body, &got)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("body %q: decodeOpRequest error %v, encoding/json %v", body, gotErr, wantErr)
	}
	if !sameBits(got.X0, want.X0) || !sameBits(got.B, want.B) || !sameBits(got.Coeffs, want.Coeffs) {
		t.Fatalf("body %q: vectors differ from encoding/json:\n got %+v\nwant %+v", body, got, want)
	}
	got.X0, got.B, got.Coeffs, want.X0, want.B, want.Coeffs = nil, nil, nil, nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: fields differ from encoding/json:\n got %+v\nwant %+v", body, got, want)
	}
}

// decodeSeeds are the shapes the codec must agree with encoding/json
// on: each lexical form ParseFloat admits and JSON does not, the
// vector keys in every spelling json matches, duplicates in both
// orders, and the ways a body can be something other than one object.
var decodeSeeds = []string{
	`{"matrix":"abc","k":6,"x0":[1,2.5,-3e-7,0,-0,1e21,5e-324,1.7976931348623157e308],"return":"full"}`,
	`{"x0":[1,]}`, `{"x0":[01]}`, `{"x0":[+1]}`, `{"x0":[.5]}`, `{"x0":[1.]}`, `{"x0":[-]}`, `{"x0":[1e]}`,
	`{"x0":[NaN]}`, `{"x0":[nan]}`, `{"x0":[Infinity]}`, `{"x0":[1e999]}`, `{"x0":[-1e999]}`,
	`{"x0":[0x10]}`, `{"x0":[1_0]}`, `{"x0":[null]}`, `{"x0":["1"]}`, `{"x0":[true]}`, `{"x0":[1 2]}`,
	`{"x0":[]}`, `{"x0":[ ]}`, `{"x0":null}`, `{"x0":7}`, `{"x0":"v"}`, `{"x0":{}}`, `{"x0":[[1]]}`, `{"x0":[1,[2]]}`,
	`{"X0":[1],"B":[2],"COEFFS":[3]}`, `{"Coeffs":[1,2],"coeffs":[3]}`,
	"{\"x\\u0030\":[1]}", "{\"\\u0078\\u0030\":[4],\"k\":2}", "{\"coeff\u017f\":[9]}", "{\"\u212a\":4}", "{\"\\u212a\":5}", `{"x0":[1]}`,
	`{"x0":[1,2,3],"x0":[4]}`, `{"x0":[4],"x0":[1,2,3]}`, `{"x0":[1],"x0":null}`, `{"x0":null,"x0":[1]}`, `{"x0":[1],"x0":[]}`,
	`{"k":1,"k":2}`, `{"matrix":null,"k":null,"return":null,"timeout_ms":null}`,
	`{"k":"6"}`, `{"k":6.5}`, `{"k":1e3}`, `{"matrix":5}`, `{"timeout_ms":"x","k":3}`,
	`{"unknown":{"x0":[1,{"a":"]}"}]},"k":2}`, `{"unknown":"a\"b","k":2}`, `{"unknown":[}`, `{"unknown":tru}`,
	`{"k":1,}`, `{,"k":1}`, `{"k" 1}`, `{"k":}`, `{k:1}`, `{"k":1 "b":[1]}`, `{"k":1`, `{"x0":[1`, `{"k":"a`,
	" \t\r\n{ \"k\" : 3 , \"x0\" : [ 1 , 2 ] } \n", "{\"k\":3}\x00", "{\"k\":\x0b3}", "{\"matrix\":\"\x01\"}", "{\"matrix\":\"\xff\"}",
	`{"k":3} x`, `{"k":3}{"k":4}`, `{"k":3}]`, `[1,2]`, `"x0"`, `null`, `3`, `{}`, ``, ` `,
}

// TestOpRequestDecodeMatchesStdlib runs every seed through the oracle.
func TestOpRequestDecodeMatchesStdlib(t *testing.T) {
	for _, s := range decodeSeeds {
		checkDecodeParity(t, []byte(s))
	}
}

// FuzzOpRequestDecode explores from the seeds with encoding/json as the
// oracle; the corpus under testdata/fuzz runs as plain tests.
func FuzzOpRequestDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecodeParity(t, body) })
}

// TestOpRequestDecodeTakesThePlainPath guards the gain, not the result:
// the bodies the benchmark and fbmpkload send must not fall back to
// encoding/json, and no float of the serve-vec body to ParseFloat.
func TestOpRequestDecodeTakesThePlainPath(t *testing.T) {
	body, _ := json.Marshal(OpRequest{Matrix: "k", K: 6, X0: DefaultVector(100), Return: ReturnFull})
	var req OpRequest
	if !decodeOpPlain(body, &req) {
		t.Fatalf("a json.Marshal-ed OpRequest fell back to encoding/json: %.80s", body)
	}
	body, x := serveVecBody(t)
	i := bytes.Index(body, []byte(`"x0":[`)) + len(`"x0":[`)
	for n := range x {
		f, end, exact := parseJSONNumber(body, i, pow10Table())
		if !exact || f != x[n] {
			t.Fatalf("x0[%d] = %v read as %v, fast path %v", n, x[n], f, exact)
		}
		i = end + 1
	}
}

// jsonEdgeFloats sit on either side of each of encoding/json's format
// switches.
var jsonEdgeFloats = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, 9.999999999999999e-7, 1e-6,
	1, -1.5, 123456789, 9.999999999999999e20, 1e21, -1e21, 1.7976931348623157e308, 1e-10, 1.5e-300}

// TestOpResponseMatchesStdlib pins the reply bytes to json.Marshal for
// the edge values and 5 000 random magnitudes, with and without the
// optional members around the vector.
func TestOpResponseMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vec := append([]float64(nil), jsonEdgeFloats...)
	for i := 0; i < 5000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		vec = append(vec, f)
	}
	for _, resp := range []OpResponse{
		{APIVersion: APIVersion, Op: "mpk", N: len(vec), Result: vec, ElapsedNS: 12345, TraceID: "4bf92f3577b34da6a3ce929d0e0e4736"},
		{APIVersion: APIVersion, Op: "sspmv", N: 1, Result: vec[:1]},
		{APIVersion: `"result":[0]`, Op: "<&>", N: 3, Result: vec[:3], Checksum: `"result":[0]`},
		{APIVersion: APIVersion, Op: "solve", N: 0, Result: []float64{}, ElapsedNS: 1},
		{APIVersion: APIVersion, Op: "mpk", N: 9, Checksum: "00ff", ElapsedNS: 7},
	} {
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendOpResponse([]byte("kept:"), &resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("kept:"), want...)) {
			t.Fatalf("appendOpResponse differs from json.Marshal:\n got %.200s\nwant %.200s", got, want)
		}
	}
}

// TestOpResponseNonFinite: the first NaN or infinity is named.
func TestOpResponseNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := OpResponse{Result: []float64{1, 2, bad, math.NaN()}}
		_, err := appendOpResponse(nil, &resp)
		nf, ok := err.(*nonFiniteError)
		if !ok || nf.index != 2 {
			t.Fatalf("result with %v at 2: got error %v", bad, err)
		}
	}
}

// TestNonFiniteResultIsATypedError: A^6 x overflowing used to be a 200
// with no body, counted ok. It is a 422 naming the first bad index,
// counted under its kind, kept in the failure ring — and the checksum
// form of the same request still answers.
func TestNonFiniteResultIsATypedError(t *testing.T) {
	s, hts := newTestServer(t, Config{})
	resp, err := http.Post(hts.URL+"/v1/matrix", "text/plain", strings.NewReader(
		"%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1e60\n2 2 1\n3 3 1e60\n"))
	if err != nil {
		t.Fatal(err)
	}
	var up UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil || up.Key == "" {
		t.Fatalf("upload: %v %+v", err, up)
	}
	resp.Body.Close()

	req := OpRequest{Matrix: up.Key, K: 6, X0: []float64{1, 1, 1}}
	status, _, eresp := postOp(t, hts.URL, "mpk", req)
	if status != http.StatusUnprocessableEntity || eresp.Kind != KindNonFinite ||
		!strings.Contains(eresp.Error, "result[0]") || !strings.Contains(eresp.Error, `"return":"checksum"`) {
		t.Fatalf("overflowing full result: status %d, body %+v", status, eresp)
	}
	_, failures, _ := s.obs.flight.snapshot()
	if len(failures) != 1 || failures[0].Outcome != KindNonFinite || failures[0].Status != http.StatusUnprocessableEntity {
		t.Fatalf("failure ring: %+v", failures)
	}
	metrics, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	if !bytes.Contains(text, []byte(`fbmpkd_requests_total{op="mpk",outcome="non_finite"} 1`)) ||
		bytes.Contains(text, []byte(`op="mpk",outcome="ok"`)) {
		t.Fatalf("request not counted under its error outcome:\n%s", text)
	}

	req.Return = ReturnChecksum
	status, ok, _ := postOp(t, hts.URL, "mpk", req)
	if status != http.StatusOK || ok.Checksum != Checksum([]float64{math.Inf(1), 1, math.Inf(1)}) {
		t.Fatalf("checksum of the same result: status %d, body %+v", status, ok)
	}
}

// TestTrailingBytesAreRejected pins the one deliberate divergence from
// the json.Decoder the handler used to read with: a body is one JSON
// object and nothing else.
func TestTrailingBytesAreRejected(t *testing.T) {
	_, hts := newTestServer(t, Config{MaxBodyBytes: 4096})
	key := uploadTestMatrix(t, hts.URL)
	post := func(body string) (int, string) {
		resp, err := http.Post(hts.URL+"/v1/mpk", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	good := `{"matrix":"` + key + `","k":2,"return":"checksum"}`
	if status, body := post(good + " \n"); status != http.StatusOK {
		t.Fatalf("trailing white space: %d %s", status, body)
	}
	for _, tail := range []string{"x", "{}", "]"} {
		if status, body := post(good + tail); status != http.StatusBadRequest || !strings.Contains(body, KindBadRequest) {
			t.Fatalf("trailing %q: %d %s", tail, status, body)
		}
	}
	if status, body := post(""); status != http.StatusBadRequest {
		t.Fatalf("empty body: %d %s", status, body)
	}
	// Over the limit, wherever the object itself ends.
	if status, body := post(good + strings.Repeat(" ", 4096)); status != http.StatusBadRequest ||
		!strings.Contains(body, "request body too large") {
		t.Fatalf("over-limit body: %d %s", status, body)
	}
}

// serveVecBody is the serve-vec request: 79 524 full-precision floats.
func serveVecBody(tb testing.TB) ([]byte, []float64) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 79524)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	body, err := json.Marshal(OpRequest{Matrix: strings.Repeat("ab", 32), K: 6, X0: x, Return: ReturnFull})
	if err != nil {
		tb.Fatal(err)
	}
	return body, x
}

func BenchmarkOpDecode(b *testing.B) {
	body, _ := serveVecBody(b)
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req OpRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req OpRequest
			if err := decodeOpRequest(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkOpEncode(b *testing.B) {
	_, x := serveVecBody(b)
	resp := OpResponse{APIVersion: APIVersion, Op: "mpk", N: len(x), Result: x, ElapsedNS: 6600000}
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := json.Marshal(&resp)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(out)))
		}
	})
	b.Run("codec", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendOpResponse(buf[:0], &resp); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
		}
	})
}

// BenchmarkOpRequestBudget drives the serve-vec request (G3_circuit at
// scale 0.05: 79 524 floats each way, k = 6) through a daemon and
// reports where a request's time goes by the daemon's own timelines:
// the median decode / acquire / plan.execute / encode phase per request,
// beside the client's ns/op.
func BenchmarkOpRequestBudget(b *testing.B) {
	s := New(Config{PlanOptions: testPlanOpts, FlightCapacity: b.N + 8})
	defer s.Close()
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()
	up := uploadSpec(b, hts.URL, GeneratorSpec{Name: "G3_circuit", Scale: 0.05, Seed: 1})
	_, x := serveVecBody(b)
	body, _ := json.Marshal(OpRequest{Matrix: up.Key, K: 6, X0: x[:up.Rows], Return: ReturnFull})
	post := func() {
		resp, err := http.Post(hts.URL+"/v1/mpk", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("mpk: %s", resp.Status)
		}
		b.SetBytes(int64(len(body)) + n)
	}
	post() // builds the plan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	phases := map[string][]float64{}
	slowest, _, _ := s.obs.flight.snapshot()
	for _, e := range slowest {
		if e.Op != "mpk" || slices.ContainsFunc(e.Phases, func(p events.Phase) bool { return p.Name == "registry.build" }) {
			continue // the upload, and the request that built the plan
		}
		for _, p := range e.Phases {
			phases[p.Name] = append(phases[p.Name], float64(p.Dur)/1e6)
		}
	}
	for _, name := range []string{"decode", "acquire", "plan.execute", "encode"} {
		v := phases[name]
		if len(v) == 0 {
			continue
		}
		sort.Float64s(v)
		b.ReportMetric(v[len(v)/2], name+"_ms")
	}
}
