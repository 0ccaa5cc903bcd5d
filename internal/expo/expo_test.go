package expo

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"fbmpk/internal/core"
	"fbmpk/internal/matgen"
	"fbmpk/internal/registry"
)

// buildSnapshot runs a real plan through a few operations so the
// snapshot carries call counters, latency buckets, and traffic ratios.
func buildSnapshot(t *testing.T) PlanSnapshot {
	t.Helper()
	spec, err := matgen.ByName("cant")
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Generate(0.004, 7)
	p, err := core.NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rng := rand.New(rand.NewSource(1))
	x0 := make([]float64, a.Rows)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	for i := 0; i < 5; i++ {
		if _, err := p.MPK(x0, 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.SSpMV([]float64{1, 0.5, 0.25}, x0); err != nil {
		t.Fatal(err)
	}
	return PlanSnapshot{Name: "test-plan", Metrics: p.Metrics()}
}

type sample struct {
	name   string
	labels string // canonical sorted label string
	lmap   map[string]string
	value  float64
}

// parseProm lints the text format while parsing: HELP then TYPE
// precede every family's samples, families are not repeated, sample
// lines are well-formed, and values parse as Go floats (Prometheus
// accepts Inf/NaN spellings).
func parseProm(t *testing.T, text string) []sample {
	t.Helper()
	var out []sample
	seenFamily := map[string]string{} // family -> type
	lastHelp := ""
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[0] == "" {
				t.Fatalf("malformed HELP line: %q", line)
			}
			if _, dup := seenFamily[parts[0]]; dup {
				t.Fatalf("family %q declared twice", parts[0])
			}
			lastHelp = parts[0]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name, typ := parts[0], parts[1]
			if name != lastHelp {
				t.Fatalf("TYPE %q not directly after its HELP (last HELP %q)", name, lastHelp)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("invalid TYPE %q", typ)
			}
			seenFamily[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		// Sample line: name{labels} value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		series, valstr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valstr, 64)
		if err != nil {
			t.Fatalf("sample value %q does not parse: %v (line %q)", valstr, err, line)
		}
		name, lmap := series, map[string]string{}
		canon := ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated label set: %q", line)
			}
			name = series[:i]
			body := series[i+1 : len(series)-1]
			var keys []string
			for _, kv := range splitLabels(t, body) {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 || len(kv) < eq+3 || kv[eq+1] != '"' || !strings.HasSuffix(kv, `"`) {
					t.Fatalf("malformed label %q in %q", kv, line)
				}
				k, val := kv[:eq], kv[eq+2:len(kv)-1]
				if _, dup := lmap[k]; dup {
					t.Fatalf("duplicate label %q in %q", k, line)
				}
				lmap[k] = val
				keys = append(keys, k+"="+val)
			}
			canon = strings.Join(keys, ",")
		}
		family := histogramFamily(name)
		if _, ok := seenFamily[family]; !ok {
			t.Fatalf("sample %q precedes its TYPE declaration", line)
		}
		out = append(out, sample{name: name, labels: canon, lmap: lmap, value: v})
	}
	// No duplicate series.
	seen := map[string]bool{}
	for _, s := range out {
		key := s.name + "{" + s.labels + "}"
		if seen[key] {
			t.Fatalf("duplicate series %s", key)
		}
		seen[key] = true
	}
	return out
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(t *testing.T, body string) []string {
	t.Helper()
	var parts []string
	depth := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				parts = append(parts, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		parts = append(parts, body[start:])
	}
	return parts
}

// histogramFamily maps _bucket/_sum/_count series to their family.
func histogramFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			base := strings.TrimSuffix(name, suf)
			switch base {
			case "fbmpk_op_latency_seconds", "fbmpkd_request_seconds":
				return base
			}
		}
	}
	return name
}

func TestWriteMetricsFormatValid(t *testing.T) {
	snap := buildSnapshot(t)
	var sb strings.Builder
	if err := WriteMetrics(&sb, snap); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, sb.String())
	if len(samples) == 0 {
		t.Fatal("no samples emitted")
	}

	find := func(name string, want map[string]string) (sample, bool) {
	outer:
		for _, s := range samples {
			if s.name != name {
				continue
			}
			for k, v := range want {
				if s.lmap[k] != v {
					continue outer
				}
			}
			return s, true
		}
		return sample{}, false
	}

	// Per-op call counters present and plan-labeled.
	mpkCalls, ok := find("fbmpk_calls_total", map[string]string{"plan": "test-plan", "op": "mpk"})
	if !ok || mpkCalls.value != 5 {
		t.Fatalf("fbmpk_calls_total{op=mpk} = %+v, want 5", mpkCalls)
	}
	if _, ok := find("fbmpk_calls_total", map[string]string{"op": "sspmv"}); !ok {
		t.Fatal("missing fbmpk_calls_total{op=sspmv}")
	}
	// Headline ratio series exists and sits in the FBMPK range.
	ratio, ok := find("fbmpk_reads_of_a_per_spmv", map[string]string{"plan": "test-plan"})
	if !ok {
		t.Fatal("missing fbmpk_reads_of_a_per_spmv")
	}
	if !(ratio.value > 0 && ratio.value <= 1) {
		t.Fatalf("reads_of_a_per_spmv = %v, want in (0, 1]", ratio.value)
	}
}

func TestHistogramBucketsCumulativeAndSumConsistent(t *testing.T) {
	snap := buildSnapshot(t)
	var sb strings.Builder
	if err := WriteMetrics(&sb, snap); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, sb.String())

	type hist struct {
		buckets []sample
		inf     float64
		count   float64
		sum     float64
	}
	hists := map[string]*hist{}
	get := func(op string) *hist {
		h := hists[op]
		if h == nil {
			h = &hist{inf: math.NaN(), count: math.NaN()}
			hists[op] = h
		}
		return h
	}
	for _, s := range samples {
		op := s.lmap["op"]
		switch s.name {
		case "fbmpk_op_latency_seconds_bucket":
			if s.lmap["le"] == "+Inf" {
				get(op).inf = s.value
			} else {
				get(op).buckets = append(get(op).buckets, s)
			}
		case "fbmpk_op_latency_seconds_count":
			get(op).count = s.value
		case "fbmpk_op_latency_seconds_sum":
			get(op).sum = s.value
		}
	}
	if len(hists) == 0 {
		t.Fatal("no latency histograms emitted")
	}
	for op, h := range hists {
		// Buckets nondecreasing in both le and count (writer order).
		prevLe, prevCount := -1.0, 0.0
		for _, b := range h.buckets {
			le, err := strconv.ParseFloat(b.lmap["le"], 64)
			if err != nil {
				t.Fatalf("op %s: le %q does not parse: %v", op, b.lmap["le"], err)
			}
			if le <= prevLe {
				t.Fatalf("op %s: le not increasing: %v after %v", op, le, prevLe)
			}
			if b.value < prevCount {
				t.Fatalf("op %s: cumulative count decreases: %v after %v", op, b.value, prevCount)
			}
			prevLe, prevCount = le, b.value
		}
		if math.IsNaN(h.inf) || h.inf != h.count {
			t.Fatalf("op %s: +Inf bucket %v != count %v", op, h.inf, h.count)
		}
		if prevCount != h.count {
			t.Fatalf("op %s: last bucket %v != count %v", op, prevCount, h.count)
		}
		if h.count > 0 && h.sum <= 0 {
			t.Fatalf("op %s: sum %v not positive with count %v", op, h.sum, h.count)
		}
		// Sum-consistency with the call counters: every successful call
		// is one histogram observation.
		if calls := snap.Metrics.CallsByOp[op]; h.count != float64(calls) {
			t.Fatalf("op %s: histogram count %v != calls %d", op, h.count, calls)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	snap := PlanSnapshot{Name: "we\"ird\\plan\nname", Metrics: core.PlanMetrics{
		CallsByOp: map[string]uint64{"mpk": 1},
		Latency: map[string]core.OpLatency{"mpk": {
			Count: 1, Sum: time.Millisecond,
			Buckets: []core.LatencyBucket{{Le: time.Millisecond, Count: 1}},
		}},
	}}
	var sb strings.Builder
	if err := WriteMetrics(&sb, snap); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if strings.Contains(text, "\nname") && !strings.Contains(text, `\nname`) {
		t.Fatal("newline in label value not escaped")
	}
	if !strings.Contains(text, `we\"ird\\plan\nname`) {
		t.Fatalf("label value not escaped:\n%s", text)
	}
	// The lint parser must accept the escaped output.
	parseProm(t, text)
}

// TestExpositionGolden holds the whole exposition byte for byte: the
// plan families of three fixed snapshots (a parallel forward-backward
// plan with its build stages, a SELL plan, and one without stats), the
// plan-cache families and the daemon families, against
// testdata/exposition.golden. The golden was rendered while the build
// stages and the backend label still came from copies in PlanMetrics
// and the daemon histograms still carried exemplars (stripped from
// it), so it pins that moving both to their one source changed no
// byte a scraper reads.
func TestExpositionGolden(t *testing.T) {
	var h, hs core.LatencyHist
	for _, d := range []time.Duration{300 * time.Microsecond, 1200 * time.Microsecond, 7 * time.Millisecond} {
		h.Observe(d)
	}
	hs.Observe(45 * time.Millisecond)
	fb := PlanSnapshot{Name: "fb", Metrics: core.PlanMetrics{
		CallsByOp: map[string]uint64{"mpk": 3}, Calls: 3, Rejected: 1, Canceled: 2, InFlight: 1,
		Sweeps: 24, SpMVs: 12, NnzStreamed: 7000, MatrixNnz: 1000, ReadsOfA: 7, ReadsPerSpMV: 7.0 / 12,
		CallTime:     8500 * time.Microsecond,
		PhaseWait:    map[string]time.Duration{"forward": time.Millisecond, "backward": 1500 * time.Microsecond},
		PhaseCompute: map[string]time.Duration{"forward": 3 * time.Millisecond, "backward": 2500 * time.Microsecond, "head": 700 * time.Microsecond},
		NsPerNnz:     map[string]float64{"forward": 1.25, "backward": 0.875, "head": 1.4},
		Latency:      map[string]core.OpLatency{"mpk": h.Snapshot()},
	}, Stats: core.PlanStats{
		BuildTime: 12 * time.Millisecond, GraphTime: 2 * time.Millisecond, ColorTime: time.Millisecond,
		SplitTime: 4 * time.Millisecond, ReorderTime: 3500 * time.Microsecond, ParallelPrep: true, Backend: "split",
	}}
	sell := PlanSnapshot{Name: "sell", Metrics: core.PlanMetrics{
		CallsByOp: map[string]uint64{"sspmv": 1}, Calls: 1, Sweeps: 4, SpMVs: 4, NnzStreamed: 4000, MatrixNnz: 1000,
		ReadsOfA: 4, ReadsPerSpMV: 1, CallTime: 45 * time.Millisecond,
		Latency: map[string]core.OpLatency{"sspmv": hs.Snapshot()},
	}, Stats: core.PlanStats{
		BuildTime: 3 * time.Millisecond, PermTime: 250 * time.Microsecond, TuneTime: 2 * time.Millisecond, Backend: "sell",
	}}
	reg := RegistrySnapshot{Name: "registry", Stats: registry.Stats{
		Capacity: 4, Entries: 3, Live: 1, Hits: 17, Misses: 5, Coalesced: 2, Canceled: 1, Builds: 4,
		BuildFailures: 1, Evictions: 1, Updated: 6, Rebuilt: 1, BuildTime: 95 * time.Millisecond,
	}}

	var sb strings.Builder
	if err := WriteMetrics(&sb, fb, sell, PlanSnapshot{Name: "bare"}); err != nil {
		t.Fatal(err)
	}
	if err := WriteRegistryMetrics(&sb, reg); err != nil {
		t.Fatal(err)
	}
	if err := WriteDaemonMetrics(&sb, daemonSnapshotFixture()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(sb.String(), "\n"), strings.Split(string(want), "\n")
	for i := range got {
		if i >= len(wantLines) || got[i] != wantLines[i] {
			w := "<end of golden>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("exposition differs from the golden at line %d:\n got %q\nwant %q", i+1, got[i], w)
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("exposition has %d lines, the golden %d", len(got), len(wantLines))
	}
}
