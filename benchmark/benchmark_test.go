package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"fbmpk/internal/sparse"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric catalog")

// benchmarkJSON mirrors the driver's BENCHMARK.json contract.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []e2eJSON      `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// catalogJSON is BENCHMARK.json as the code defines it.
func catalogJSON() benchmarkJSON {
	b := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 20}
	for _, w := range workloads() {
		b.Workloads = append(b.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, e2eJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	return b
}

// TestBenchmarkJSONMatchesCatalog keeps the checked-in BENCHMARK.json
// and the metric catalog in spec.go one definition: run with -update
// to regenerate the file after editing the catalog.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := catalogJSON()
	if *update {
		raw, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalog in spec.go; run `go test ./benchmark -run BenchmarkJSON -update`")
	}
}

// TestCatalogMeetsContract checks the limits the driver refuses a
// BENCHMARK.json over.
func TestCatalogMeetsContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	ws := workloads()
	if len(ws) < 2 || len(ws) > 8 {
		t.Errorf("%d workloads, want 2..8", len(ws))
	}
	for _, w := range ws {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, m := range endToEnd {
		checkName(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		checkName(m.Name)
		if m.Layer == "" || m.Moves == "" {
			t.Errorf("%s: per-layer metric needs its layer and the end-to-end metric it should move", m.Name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at tiny scale, end to end
// and traced, through the same entry point the driver uses, and checks
// that every metric BENCHMARK.json names is reported with its unit and
// a finite value, with output verification on and no failed op.
func TestSmokeAllWorkloads(t *testing.T) {
	want := catalogJSON()
	for _, w := range want.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				err := mainErr([]string{"--workload", w.Name, "--seed", "7", "--seconds", "5", "--trace", trace,
					"-smoke", "-out", t.TempDir()}, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				units := map[string]string{}
				if trace == "0" {
					for _, m := range want.EndToEnd {
						units[m.Name] = m.Unit
					}
				} else {
					for _, m := range want.PerLayer {
						units[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(units) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(units))
				}
				for name, unit := range units {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s is missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s: unit %q, want %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s: value %v is not finite", name, m.Value)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s: value %v must be positive", name, m.Value)
					}
					if !strings.Contains(out.String(), name) {
						t.Errorf("metric %s is not printed by name", name)
					}
				}
			})
		}
	}
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	r := newRun()
	spec, _ := findWorkload("mpk-cache")
	spec = spec.smoke()
	b, err := newBed(r, spec.Matrix, spec.Scale, 3, spec.Threads, spec.BuildSeeds, spec.OnSubject)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	ref := b.refK[0]
	ref[0] += sparse.NormInf(ref) // the engines are right; the reference now is not
	libLeg(r, b, nil, &opIDs{}, 0, 1, budget(runOptions{seconds: 5}))
	if r.failed == 0 {
		t.Error("a result differing from its reference was not counted as a failed op")
	}
	rep := &runReport{Failed: r.failed}
	if resultLine(rep).Correct {
		t.Error("a run with failed ops reported correct=true")
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	sum := summarize(s)
	if sum.N != 200 || sum.Median != 100.5 || sum.HiPct != 95 || math.Abs(sum.Hi-190.05) > 1e-9 {
		t.Errorf("summarize(1..200) = %+v", sum)
	}
	if sum := summarize([]float64{3, 1, 2}); sum.Median != 2 || sum.HiPct != 0 || sum.Min != 1 || sum.Max != 3 {
		t.Errorf("summarize(3,1,2) = %+v", sum)
	}
}

func TestBestBlock(t *testing.T) {
	// 16 samples, 8 blocks of 2: a disturbed stretch in the middle and
	// one fast outlier must not decide the value.
	samples := []float64{10, 10, 10, 10, 30, 40, 50, 40, 30, 20, 10, 2, 9, 9, 10, 10}
	if got := bestBlock(samples, false); got != 6 { // block {10, 2}
		t.Errorf("bestBlock = %v, want 6", got)
	}
	if got := bestBlock(samples, true); got != 45 { // block {50, 40}
		t.Errorf("bestBlock higher-is-better = %v, want 45", got)
	}
	if got := bestBlock([]float64{5, 3, 4}, false); got != 3 {
		t.Errorf("bestBlock of fewer samples than blocks = %v, want the best sample 3", got)
	}
	seen := map[int]int{}
	for i := 0; i < 1000; i++ {
		seen[blockOf(i, 1000)]++
	}
	if len(seen) != runBlocks || seen[0] != 125 || seen[runBlocks-1] != 125 {
		t.Errorf("blockOf splits 1000 samples into %v", seen)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	q1, q2, q3 = quartiles([]float64{10, 20, 30})
	if q1 != 10 || q2 != 20 || q3 != 30 {
		t.Errorf("quartiles = %v %v %v, want 10 20 30", q1, q2, q3)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100e6},
		{ID: 1, Parent: 0, Name: "a", Start: 10e6, End: 40e6},
		{ID: 2, Parent: 0, Name: "b", Start: 30e6, End: 60e6},  // overlaps a by 10 ms
		{ID: 3, Parent: 0, Name: "c", Start: 90e6, End: 120e6}, // runs past its parent
		{ID: 4, Parent: 1, Name: "leaf", Start: 15e6, End: 20e6},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{
		"root": 100 - 50 - 10, // children cover [10,60] and [90,100]
		"a":    30 - 5,
		"b":    30,
		"leaf": 5,
	} {
		if got := self[name]; len(got) != 1 || math.Abs(got[0]-want) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
	if d := durations(spans)["c"]; len(d) != 1 || d[0] != 30 {
		t.Errorf("duration of c = %v, want 30", d)
	}
}

func TestVerdict(t *testing.T) {
	mk := func(better string, bound float64, values ...float64) acrossRuns {
		ar := acrossRuns{metricDef: metricDef{Name: "m", Better: better, Bound: bound}, Values: values}
		ar.Q1, ar.Median, ar.Q3 = quartiles(values)
		ar.Spread = (ar.Q3 - ar.Q1) / ar.Median
		return ar
	}
	steady := mk(lower, 0.10, 100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name     string
		old, new acrossRuns
		want     string
	}{
		{"same", steady, mk(lower, 0.10, 101, 100, 99, 101, 102, 98, 100, 101, 100, 99), verdictWithin},
		{"slower", steady, mk(lower, 0.10, 115, 116, 114, 115, 117, 113, 115, 116, 114, 115), verdictRegressed},
		{"faster", steady, mk(lower, 0.10, 90, 91, 89, 90, 92, 88, 90, 91, 89, 90), verdictBetter},
		{"noisy", steady, mk(lower, 0.10, 80, 130, 90, 120, 100, 110, 70, 140, 95, 105), verdictUnresolved},
		{"noisy but every run better", mk(lower, 0.10, 200, 260, 220, 280, 240), mk(lower, 0.10, 100, 130, 110, 140, 120), verdictBetter},
		{"throughput drop", mk(higher, 0.10, 50, 51, 49, 50, 50), mk(higher, 0.10, 40, 41, 39, 40, 40), verdictRegressed},
		{"throughput gain", mk(higher, 0.10, 50, 51, 49, 50, 50), mk(higher, 0.10, 60, 61, 59, 60, 60), verdictBetter},
	} {
		if got, _ := verdict(c.old, c.new); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fbValues ...float64) string {
		ar := acrossRuns{metricDef: endToEnd[3], Values: fbValues}
		ar.Q1, ar.Median, ar.Q3 = quartiles(fbValues)
		ar.Spread = (ar.Q3 - ar.Q1) / ar.Median
		path := filepath.Join(dir, name)
		if err := writeJSON(path, fullReport{Schema: reportSchema, Runs: len(fbValues),
			Workloads: []workloadReport{{Name: "mpk-dram", EndToEnd: []acrossRuns{ar}}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", 100, 101, 99, 100, 100)
	same := write("same.json", 101, 100, 99, 101, 100)
	slow := write("slow.json", 140, 141, 139, 140, 140)
	if err := mainErr([]string{"-compare", old, same}, io.Discard); err != nil {
		t.Errorf("comparing agreeing reports: %v", err)
	}
	var out bytes.Buffer
	if err := mainErr([]string{"-compare", old, slow}, &out); err == nil {
		t.Errorf("a regression did not fail the comparison:\n%s", out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("no regressed row in:\n%s", out.String())
	}
}
