// Command fbmpkload is the open-loop load harness for fbmpkd: it
// uploads a workload matrix, then offers requests at a series of
// fixed QPS rates for a fixed duration each — launching every request
// on its schedule tick regardless of how many are still outstanding,
// so a slow server cannot slow the offered rate (no coordinated
// omission) — and reports the latency-vs-offered-QPS curve as JSON.
//
// Usage:
//
//	fbmpkload -addr http://127.0.0.1:8707 -matrix cant -scale 0.01 \
//	          -qps 25,50,100 -duration 5s -k 4 -json curve.json
//	fbmpkload -addr http://127.0.0.1:8707 -upload m.mtx -qps 50 -duration 10s
//	fbmpkload -check curve.json    # CI gate: zero hard errors, finite p99
//
// The request mix cycles deterministically (default mpk=3,sspmv=1,
// solve=1) and asks for checksum-only responses, so response bandwidth
// stays O(1) in the matrix size while bitwise determinism remains
// checkable.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fbmpk/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "", "daemon base URL, e.g. http://127.0.0.1:8707")
		matrix   = flag.String("matrix", "cant", "suite matrix name to generate server-side")
		scale    = flag.Float64("scale", 0.01, "suite matrix scale")
		seed     = flag.Uint64("seed", 1, "generator seed")
		upload   = flag.String("upload", "", "MatrixMarket file to upload instead of a generator spec")
		qpsList  = flag.String("qps", "25,50,100", "comma-separated offered QPS points")
		duration = flag.Duration("duration", 5*time.Second, "duration of each QPS stage")
		mix      = flag.String("mix", "mpk=3,sspmv=1,solve=1", "deterministic request mix (op=weight,...)")
		k        = flag.Int("k", 4, "MPK power / SSpMV polynomial degree")
		sweeps   = flag.Int("sweeps", 1, "solve request SymGS sweeps")
		deadline = flag.Duration("deadline", 2*time.Second, "per-request deadline sent as timeout_ms")
		jsonOut  = flag.String("json", "", "write the load report to this file ('-' = stdout)")
		check    = flag.String("check", "", "validate a saved report instead of running (CI gate)")
	)
	flag.Parse()

	if *check != "" {
		if err := checkReport(*check); err != nil {
			fmt.Fprintln(os.Stderr, "fbmpkload:", err)
			os.Exit(1)
		}
		fmt.Printf("fbmpkload: %s: report ok\n", *check)
		return
	}
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "fbmpkload: -addr is required (or use -check)")
		os.Exit(1)
	}
	if err := run(*addr, *matrix, *scale, *seed, *upload, *qpsList, *duration,
		*mix, *k, *sweeps, *deadline, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "fbmpkload:", err)
		os.Exit(1)
	}
}

func checkReport(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := ReadLoadReport(f)
	if err != nil {
		return err
	}
	return rep.Check()
}

// parseQPS parses "25,50,100" into offered rates.
func parseQPS(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad QPS point %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no QPS points in %q", s)
	}
	return out, nil
}

// parseMix expands "mpk=3,sspmv=1" into the deterministic request
// cycle ["mpk","mpk","mpk","sspmv"].
func parseMix(s string) ([]string, error) {
	var cycle []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		name, wstr, found := strings.Cut(p, "=")
		w := 1
		if found {
			var err error
			if w, err = strconv.Atoi(wstr); err != nil || w < 0 {
				return nil, fmt.Errorf("bad mix weight %q", p)
			}
		}
		switch name {
		case "mpk", "sspmv", "solve":
		default:
			return nil, fmt.Errorf("unknown op %q in mix (mpk | sspmv | solve)", name)
		}
		for i := 0; i < w; i++ {
			cycle = append(cycle, name)
		}
	}
	if len(cycle) == 0 {
		return nil, fmt.Errorf("empty request mix %q", s)
	}
	return cycle, nil
}

// loadClient issues daemon requests with prebuilt bodies.
type loadClient struct {
	base   string
	hc     *http.Client
	bodies map[string][]byte // op -> request JSON
}

// outcome classes of one request, aligned with LoadPoint counters.
const (
	outOK = iota
	outRejected
	outDeadline
	outError
)

func (c *loadClient) post(path string, contentType string, body []byte) (*http.Response, error) {
	return c.hc.Post(c.base+path, contentType, bytes.NewReader(body))
}

// outcomeName renders an outcome class for the worst-request records.
func outcomeName(out int) string {
	switch out {
	case outOK:
		return "ok"
	case outRejected:
		return "rejected"
	case outDeadline:
		return "deadline"
	default:
		return "error"
	}
}

// fire issues one op request under a fresh client-generated
// traceparent and classifies the outcome. The returned trace ID is
// the correlation key the daemon logged the request under.
func (c *loadClient) fire(op string) (time.Duration, int, string) {
	tc := serve.NewTraceContext()
	trace := tc.TraceIDString()
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/"+op, bytes.NewReader(c.bodies[op]))
	if err != nil {
		return 0, outError, trace
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TraceparentHeader, tc.String())
	start := time.Now()
	resp, err := c.hc.Do(req)
	lat := time.Since(start)
	if err != nil {
		return lat, outError, trace
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive reuse
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		return lat, outOK, trace
	case resp.StatusCode == http.StatusTooManyRequests:
		return lat, outRejected, trace
	case resp.StatusCode == http.StatusGatewayTimeout:
		return lat, outDeadline, trace
	default:
		return lat, outError, trace
	}
}

// stage offers requests open-loop at the given rate for the given
// duration: request i launches at start + i/qps on its own goroutine,
// never waiting for outstanding ones.
// worstTracked bounds the per-stage worst-latency records kept with
// their trace IDs.
const worstTracked = 3

func (c *loadClient) stage(qps float64, dur time.Duration, cycle []string) LoadPoint {
	interval := time.Duration(float64(time.Second) / qps)
	var (
		mu                       sync.Mutex
		lats                     []time.Duration
		rejected, deadline, errs int
		wg                       sync.WaitGroup
		sent                     int
		worst                    []WorstRequest
	)
	start := time.Now()
	for i := 0; ; i++ {
		offset := time.Duration(i) * interval
		if offset >= dur {
			break
		}
		time.Sleep(time.Until(start.Add(offset)))
		op := cycle[i%len(cycle)]
		sent++
		wg.Add(1)
		go func(op string) {
			defer wg.Done()
			lat, out, trace := c.fire(op)
			mu.Lock()
			switch out {
			case outOK:
				lats = append(lats, lat)
			case outRejected:
				rejected++
			case outDeadline:
				deadline++
			default:
				errs++
			}
			// Track the stage's slowest requests regardless of outcome;
			// their trace IDs link straight to the daemon's flight
			// recorder and access log.
			if len(worst) < worstTracked || lat > worst[len(worst)-1].Latency {
				worst = append(worst, WorstRequest{
					Op: op, Outcome: outcomeName(out), TraceID: trace, Latency: lat,
				})
				sort.Slice(worst, func(i, j int) bool { return worst[i].Latency > worst[j].Latency })
				if len(worst) > worstTracked {
					worst = worst[:worstTracked]
				}
			}
			mu.Unlock()
		}(op)
	}
	wg.Wait()
	p := MakeLoadPoint(qps, dur, sent, rejected, deadline, errs, lats)
	p.Worst = worst
	return p
}

func run(addr, matrix string, scale float64, seed uint64, upload, qpsList string,
	duration time.Duration, mixSpec string, k, sweeps int, deadline time.Duration, jsonOut string) error {
	points, err := parseQPS(qpsList)
	if err != nil {
		return err
	}
	cycle, err := parseMix(mixSpec)
	if err != nil {
		return err
	}
	addr = strings.TrimRight(addr, "/")

	c := &loadClient{
		base: addr,
		hc: &http.Client{
			// The transport-level timeout is a backstop; the daemon
			// enforces the real per-request deadline server-side.
			Timeout: deadline + 10*time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}

	// Upload the workload matrix and build the fixed request bodies.
	var (
		desc string
		key  string
	)
	if upload != "" {
		mtx, err := os.ReadFile(upload)
		if err != nil {
			return err
		}
		key, err = c.uploadMatrix("text/plain", mtx)
		if err != nil {
			return err
		}
		desc = upload
	} else {
		spec, err := json.Marshal(serve.GeneratorSpec{Name: matrix, Scale: scale, Seed: seed})
		if err != nil {
			return err
		}
		key, err = c.uploadMatrix("application/json", spec)
		if err != nil {
			return err
		}
		desc = fmt.Sprintf("%s@%g/seed=%d", matrix, scale, seed)
	}
	fmt.Printf("fbmpkload: matrix %s uploaded, key %s...\n", desc, key[:12])

	coeffs := make([]float64, k+1)
	for i := range coeffs {
		coeffs[i] = 1 / float64(int(1)<<i)
	}
	timeoutMS := float64(deadline) / float64(time.Millisecond)
	c.bodies = map[string][]byte{}
	for op, req := range map[string]serve.OpRequest{
		"mpk":   {Matrix: key, K: k, TimeoutMS: timeoutMS, Return: serve.ReturnChecksum},
		"sspmv": {Matrix: key, Coeffs: coeffs, TimeoutMS: timeoutMS, Return: serve.ReturnChecksum},
		"solve": {Matrix: key, Sweeps: sweeps, TimeoutMS: timeoutMS, Return: serve.ReturnChecksum},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		c.bodies[op] = b
	}

	// Warm the plan cache so the first stage measures serving latency,
	// not the one-off preprocessing build.
	if lat, out, _ := c.fire("mpk"); out != outOK {
		return fmt.Errorf("warmup mpk request failed (outcome %d after %v)", out, lat)
	}

	rep := NewLoadReport(addr, desc)
	rep.MatrixKey = key
	rep.Mix = cycle
	rep.K = k
	rep.Deadline = deadline

	sort.Float64s(points)
	fmt.Printf("%10s %8s %8s %8s %8s %8s %10s %10s %10s  %s\n",
		"offered", "sent", "ok", "shed", "dline", "err", "p50", "p90", "p99", "worst trace")
	for _, qps := range points {
		p := c.stage(qps, duration, cycle)
		rep.Points = append(rep.Points, p)
		worst := "-"
		if len(p.Worst) > 0 {
			w := p.Worst[0]
			id := w.TraceID
			if len(id) > 8 {
				id = id[:8]
			}
			worst = fmt.Sprintf("%s@%s (%s %s)", id,
				w.Latency.Round(10*time.Microsecond), w.Op, w.Outcome)
		}
		fmt.Printf("%10.1f %8d %8d %8d %8d %8d %10s %10s %10s  %s\n",
			p.OfferedQPS, p.Sent, p.OK, p.Rejected, p.Deadline, p.Errors,
			p.P50.Round(10*time.Microsecond), p.P90.Round(10*time.Microsecond),
			p.P99.Round(10*time.Microsecond), worst)
	}

	if jsonOut != "" {
		if jsonOut == "-" {
			return rep.WriteJSON(os.Stdout)
		}
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// uploadMatrix posts matrix bytes and returns the fingerprint key.
func (c *loadClient) uploadMatrix(contentType string, body []byte) (string, error) {
	resp, err := c.post("/v1/matrix", contentType, body)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", fmt.Errorf("upload: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var up serve.UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		return "", fmt.Errorf("upload: decoding response: %w", err)
	}
	return up.Key, nil
}
