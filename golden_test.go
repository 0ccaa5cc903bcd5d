package fbmpk

// Golden-bits test: the result bits of every plan entry point, on every
// engine, at one and four workers, are pinned to SHA-256 digests
// checked in under testdata/golden/. The serial-vs-parallel bitwise
// suites compare two runs of the same code; this one compares the code
// against a recording, so a refactor that moves a rounding in both
// modes at once still fails. Regenerate (only when an arithmetic change
// is intended) with
//
//	go test -run TestGoldenBits -update-golden .
//
// Each engine's digests date from the last change to its arithmetic:
// the fbmpk ones from PR 16, which re-associated the sums of the
// forward-backward sweeps (split accumulation chains, backward entries
// walked downward); the standard ones from PR 12; the level-blocked
// ones from PR 24, when that engine's steps moved from a private
// one-accumulator loop to sparse.SpMVRange and its four. A regeneration
// is justified by an error bound, not by a tolerance: internal/core
// TestDerivedErrorBound holds every engine and kernel variant — the
// level-blocked paths since PR 24, before its digests moved — to
// gamma_{k(r+2)} * (|A|^k |x|)_i against an exact math/big reference,
// a bound that does not depend on summation order.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/bits.txt from the current code")

const goldenPath = "testdata/golden/bits.txt"

// goldenVec fills a deterministic vector in (-0.5, 0.5) without
// math/rand, so the inputs cannot drift with the standard library.
func goldenVec(n int, seed uint64) []float64 {
	x := make([]float64, n)
	s := seed
	for i := range x {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		x[i] = float64(z>>11)/float64(1<<53) - 0.5
	}
	return x
}

// digestVecs hashes the exact float64 bits of vs, each vector prefixed
// by its length.
func digestVecs(vs ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(len(v)))
		h.Write(b[:])
		for _, f := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; FMA-fusing targets round differently")
	}
	engines := []struct {
		name string
		opt  Options
	}{
		{"standard", Options{Engine: EngineStandard}},
		{"fbmpk+btb", Options{Engine: EngineForwardBackward, BtB: true}},
		{"fbmpk-btb", Options{Engine: EngineForwardBackward}},
		{"levelblock", Options{Engine: EngineLevelBlocked, LevelBlockBytes: 16 << 10}},
	}
	matrices := []struct {
		name string
		seed uint64
	}{{"cant", 7}, {"G3_circuit", 11}}

	got := map[string]string{}
	for _, mc := range matrices {
		a, err := GenerateSuiteMatrix(mc.name, 0.004, mc.seed)
		if err != nil {
			t.Fatal(err)
		}
		n := a.Rows
		x0 := goldenVec(n, mc.seed)
		xs := make([][]float64, 4)
		for j := range xs {
			xs[j] = goldenVec(n, mc.seed*131+uint64(j)+1)
		}
		b := goldenVec(n, mc.seed*977)
		for _, ec := range engines {
			for _, threads := range []int{1, 4} {
				opt := ec.opt
				opt.Threads = threads
				opt.NumBlocks = 16
				plan, err := NewPlan(a, opt)
				if err != nil {
					t.Fatalf("%s/%s/t%d: NewPlan: %v", mc.name, ec.name, threads, err)
				}
				for _, k := range []int{1, 2, 5, 6} {
					prefix := fmt.Sprintf("%s/%s/t%d/k%d/", mc.name, ec.name, threads, k)
					goldenEntryPoints(t, plan, prefix, got, x0, xs, b, k)
				}
				plan.Close()
			}
		}
	}

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for key := range got {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, key := range keys {
			fmt.Fprintf(&sb, "%s %s\n", key, got[key])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(keys), goldenPath)
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		want[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the test produced %d", goldenPath, len(want), len(got))
	}
	for key, sum := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no recorded digest", key)
		} else if w != sum {
			t.Errorf("%s: result bits changed (got %s, recorded %s)", key, sum[:12], w[:12])
		}
	}
}

// goldenEntryPoints runs every plan entry point at power k and records
// one digest per entry point under prefix.
func goldenEntryPoints(t *testing.T, plan *Plan, prefix string, got map[string]string, x0 []float64, xs [][]float64, b []float64, k int) {
	t.Helper()
	rec := func(name string, err error, vs ...[]float64) {
		if err != nil {
			t.Fatalf("%s%s: %v", prefix, name, err)
		}
		for _, v := range vs {
			for _, f := range v {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					t.Fatalf("%s%s: non-finite result; the digest would not pin the arithmetic", prefix, name)
				}
			}
		}
		got[prefix+name] = digestVecs(vs...)
	}
	// Coefficients with one exact zero (the kernels skip those powers)
	// when the degree leaves room for it.
	coeffs := make([]float64, k+1)
	ccoeffs := make([]complex128, k+1)
	for i := range coeffs {
		coeffs[i] = 1 / float64(i+2)
		ccoeffs[i] = complex(1/float64(i+3), float64(i%3)-1)
	}
	if k >= 5 {
		coeffs[3] = 0
	}

	xk, err := plan.MPK(x0, k)
	rec("MPK", err, xk)
	all, err := plan.MPKAll(x0, k)
	rec("MPKAll", err, all...)
	y, err := plan.SSpMV(coeffs, x0)
	rec("SSpMV", err, y)
	re, im, err := plan.SSpMVComplex(ccoeffs, x0)
	rec("SSpMVComplex", err, re, im)
	for _, m := range []int{1, 3, 4} {
		out, err := plan.MPKMulti(xs[:m], k)
		rec(fmt.Sprintf("MPKMulti%d", m), err, out...)
	}
	for _, m := range []int{1, 3, 4} {
		out, err := plan.SSpMVMulti(coeffs, xs[:m])
		rec(fmt.Sprintf("SSpMVMulti%d", m), err, out...)
	}
	if plan.Engine() == EngineForwardBackward {
		sol := make([]float64, len(b))
		rec("SymGS", plan.SymGS(b, sol, k), sol)
	}
}
