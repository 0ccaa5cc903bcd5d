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
		// Refused: GMRES left the solver package; the row keeps its name.
		{"gmres", "gmres", "cage14", 1e-8, 500, 8},
		// Refused: Lanczos left the solver package; the row keeps its name.
		{"lanczos", "lanczos", "Serena", 1e-8, 100, 10},
		{"subspace", "subspace", "shipsec1", 1e-3, 100, 4},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			err := run("", c.matrix, 0.002, 1, c.method, c.tol, c.maxIter, c.degree, 2, "fbmpk", false, true, "", "", 0)
			if c.method == "gmres" || c.method == "lanczos" {
				if err == nil || !strings.Contains(err.Error(), methods) {
					t.Fatalf("-method %s: got %v, want a refusal that lists %q", c.method, err, methods)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSolveWithCache(t *testing.T) {
	// -cache path: the plan comes from a registry Acquire and is handed
	// back with Release; the solve must behave identically.
	if err := run("", "cant", 0.002, 1, "cg", 1e-6, 200, 8, 2, "fbmpk", true, false, "", "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestSolvePowerReportsEvenUnconverged(t *testing.T) {
	// The power method may not converge in a few iterations; run must
	// still report the estimate without returning an error.
	if err := run("", "ldoor", 0.001, 1, "power", 1e-12, 3, 4, 1, "fbmpk", false, false, "", "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestSolveErrors(t *testing.T) {
	if err := run("", "", 0.01, 1, "cg", 1e-8, 10, 4, 1, "fbmpk", false, false, "", "", 0); err == nil {
		t.Error("accepted missing source")
	}
	if err := run("", "cant", 0.002, 1, "bogus", 1e-8, 10, 4, 1, "fbmpk", false, false, "", "", 0); err == nil {
		t.Error("accepted unknown method")
	}
	// A solver's argument error has no estimate to print: it is returned.
	for _, method := range []string{"power", "subspace"} {
		if err := run("", "cant", 0.002, 1, method, 1e-8, 0, 4, 1, "fbmpk", false, false, "", "", 0); err == nil {
			t.Errorf("-method %s accepted -maxiter 0", method)
		}
	}
}

func TestSolveWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "solve.trace.json")
	if err := run("", "cant", 0.002, 1, "cg", 1e-6, 200, 8, 2, "fbmpk", false, false, path, "", 0); err != nil {
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

// TestSolveBackends: -engine standard solves as -engine fbmpk does — CG
// converges in the same iteration count — on the audikw_1 stand-in,
// whose 3 x 3 blocks once put the standard engine on BSR (bsr), and on
// G3_circuit, whose short rows kept it on CSR (auto); a name that is no
// engine is refused (sell).
func TestSolveBackends(t *testing.T) {
	iters := func(t *testing.T, matrix, engine string) string {
		out := captureStdout(t, func() error {
			return run("", matrix, 0.002, 1, "cg", 1e-8, 500, 8, 2, engine, false, false, "", "", 0)
		})
		m := regexp.MustCompile(`CG converged in (\d+) iterations`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%s -engine %s printed no iteration count:\n%s", matrix, engine, out)
		}
		return m[1]
	}
	t.Run("sell", func(t *testing.T) {
		if err := run("", "cant", 0.002, 1, "cg", 1e-8, 10, 4, 1, "sell", false, false, "", "", 0); err == nil {
			t.Error("accepted -engine sell")
		}
	})
	for name, matrix := range map[string]string{"bsr": "audikw_1", "auto": "G3_circuit"} {
		t.Run(name, func(t *testing.T) {
			if got, want := iters(t, matrix, "standard"), iters(t, matrix, "fbmpk"); got != want {
				t.Fatalf("%s: -engine standard took %s iterations, -engine fbmpk %s", matrix, got, want)
			}
		})
	}
}

// TestSolveCacheWithAutoBackend: -cache -engine standard builds through
// the registry — one build under the printed fingerprint — and prints
// the plan's build line and nothing about a storage backend.
func TestSolveCacheWithAutoBackend(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("", "cant", 0.002, 1, "cg", 1e-6, 200, 8, 2, "standard", true, false, "", "", 0)
	})
	for _, line := range []*regexp.Regexp{
		regexp.MustCompile(`plan fingerprint: [0-9a-f]{64}\n`),
		regexp.MustCompile(`plan build: .*\n`),
		regexp.MustCompile(`registry: 1 build\(s\) in [^,]+, 0 hit\(s\), 0 coalesced\n`),
	} {
		if !line.MatchString(out) {
			t.Fatalf("no line matching %v:\n%s", line, out)
		}
	}
	if strings.Contains(out, "backend") {
		t.Fatalf("a backend line:\n%s", out)
	}
}

// TestSolveEngineAuto: -engine auto is the forward-backward plan under
// another spelling, so CG converges in the iteration count of -engine
// fbmpk, and the plan engine line names fbmpk.
func TestSolveEngineAuto(t *testing.T) {
	iters := map[string]string{}
	for _, engine := range []string{"fbmpk", "auto"} {
		out := captureStdout(t, func() error {
			return run("", "G3_circuit", 0.002, 1, "cg", 1e-8, 500, 8, 2, engine, false, false, "", "", 0)
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
