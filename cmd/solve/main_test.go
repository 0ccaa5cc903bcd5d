package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestSolveMethods(t *testing.T) {
	cases := []struct {
		name, method string
		matrix       string
		tol          float64
		maxIter      int
		degree       int
	}{
		{"cg", "cg", "G3_circuit", 1e-8, 500, 8},
		{"pcg", "pcg", "pwtk", 1e-8, 500, 8},
		{"chebyshev", "chebyshev", "G3_circuit", 1e-8, 100, 6},
		{"krylov", "krylov", "cant", 1e-8, 100, 5},
		{"gmres", "gmres", "cage14", 1e-8, 500, 8},
		{"lanczos", "lanczos", "Serena", 1e-8, 100, 10},
		{"subspace", "subspace", "shipsec1", 1e-3, 100, 4},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if err := run("", c.matrix, 0.002, 1, c.method, c.tol, c.maxIter, c.degree, 2, "csr", "fbmpk", false, true, "", "", 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSolveWithCache(t *testing.T) {
	// -cache path: the plan comes from a registry Acquire and is handed
	// back with Release; the solve must behave identically.
	if err := run("", "cant", 0.002, 1, "cg", 1e-6, 200, 8, 2, "csr", "fbmpk", true, false, "", "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestSolvePowerReportsEvenUnconverged(t *testing.T) {
	// The power method may not converge in a few iterations; run must
	// still report the estimate without returning an error.
	if err := run("", "ldoor", 0.001, 1, "power", 1e-12, 3, 4, 1, "csr", "fbmpk", false, false, "", "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestSolveErrors(t *testing.T) {
	if err := run("", "", 0.01, 1, "cg", 1e-8, 10, 4, 1, "csr", "fbmpk", false, false, "", "", 0); err == nil {
		t.Error("accepted missing source")
	}
	if err := run("", "cant", 0.002, 1, "bogus", 1e-8, 10, 4, 1, "csr", "fbmpk", false, false, "", "", 0); err == nil {
		t.Error("accepted unknown method")
	}
}

func TestSolveWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "solve.trace.json")
	if err := run("", "cant", 0.002, 1, "cg", 1e-6, 200, 8, 2, "csr", "fbmpk", false, false, path, "", 0); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file holds no events")
	}
}

// TestSolveBackends: the standard engine on the forced and the census's
// backend solves as on CSR — CG converges in -backend csr's iteration
// count on the audikw_1 stand-in, whose census picks BSR at 3 x 3 — and
// a name that is no backend is refused: sell (SELL-C-sigma is a format
// the benchmark times, not a backend) like any unknown one.
func TestSolveBackends(t *testing.T) {
	solve := func(t *testing.T, backend string) (out, iters string) {
		out = captureStdout(t, func() error {
			return run("", "audikw_1", 0.002, 1, "cg", 1e-8, 500, 8, 2, backend, "standard", false, false, "", "", 0)
		})
		m := regexp.MustCompile(`CG converged in (\d+) iterations`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("-backend %s printed no iteration count:\n%s", backend, out)
		}
		return out, m[1]
	}
	_, want := solve(t, "csr")
	t.Run("sell", func(t *testing.T) {
		if err := run("", "cant", 0.002, 1, "cg", 1e-8, 10, 4, 1, "sell", "standard", false, false, "", "", 0); err == nil {
			t.Error("accepted -backend sell")
		}
	})
	for _, backend := range []string{"bsr", "auto"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			out, iters := solve(t, backend)
			if iters != want {
				t.Fatalf("-backend %s took %s iterations, -backend csr %s", backend, iters, want)
			}
			line := "plan backend: " + backend + "\n"
			if backend == "auto" {
				line = "plan backend: bsr (auto in "
			}
			if !strings.Contains(out, line) {
				t.Fatalf("-backend %s did not print %q:\n%s", backend, line, out)
			}
		})
	}
	if err := run("", "cant", 0.002, 1, "cg", 1e-8, 10, 4, 1, "ellpack", "standard", false, false, "", "", 0); err == nil {
		t.Error("accepted unknown backend")
	}
}

// TestSolveCacheWithAutoBackend: -cache -backend auto builds through the
// registry, which keeps no verdicts — the plan runs the census like any
// other, and the backend line prints each candidate's price relative to
// CSR's, and nothing of samples or a verdict cache.
func TestSolveCacheWithAutoBackend(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("", "cant", 0.002, 1, "cg", 1e-6, 200, 8, 2, "auto", "standard", true, false, "", "", 0)
	})
	line := regexp.MustCompile(`plan backend: (csr|bsr) \(auto in [^,]+, census of \d+ rows, price vs csr: csr 1\.00 bsr[234] \d+\.\d\d\)\n`)
	if !line.MatchString(out) || strings.Contains(out, "samples") || strings.Contains(out, "cache") {
		t.Fatalf("no census line, or one about samples or a cache:\n%s", out)
	}
}

// TestSolveEngineAuto: -engine auto is the forward-backward plan under
// another spelling, so CG converges in the iteration count of -engine
// fbmpk, and the plan engine line names fbmpk.
func TestSolveEngineAuto(t *testing.T) {
	iters := map[string]string{}
	for _, engine := range []string{"fbmpk", "auto"} {
		out := captureStdout(t, func() error {
			return run("", "G3_circuit", 0.002, 1, "cg", 1e-8, 500, 8, 2, "csr", engine, false, false, "", "", 0)
		})
		m := regexp.MustCompile(`CG converged in (\d+) iterations`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("-engine %s printed no iteration count:\n%s", engine, out)
		}
		iters[engine] = m[1]
		if engine == "auto" && !strings.Contains(out, "plan engine: fbmpk\n") {
			t.Fatalf("-engine auto did not report the fbmpk engine:\n%s", out)
		}
	}
	if iters["auto"] != iters["fbmpk"] {
		t.Fatalf("-engine auto took %s iterations, -engine fbmpk %s", iters["auto"], iters["fbmpk"])
	}
}

// captureStdout returns what fn printed to os.Stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	b := <-out
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
