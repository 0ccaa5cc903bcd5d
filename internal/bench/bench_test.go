package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fbmpk/internal/sparse"
)

// fastCfg keeps driver tests quick: tiny matrices, two runs, one pair
// of matrices spanning the symmetric/unsymmetric classes.
func fastCfg() Config {
	return Config{
		Scale:    0.0008,
		Seed:     7,
		Runs:     2,
		Threads:  2,
		Matrices: []string{"cant", "cage14"},
	}
}

func TestMeasureBasics(t *testing.T) {
	n := 0
	tm := Measure(5, func() { n++ })
	if n != 6 { // 5 runs + warm-up
		t.Errorf("f ran %d times, want 6", n)
	}
	if tm.Runs != 5 || tm.GeoMean <= 0 || tm.Min > tm.Max {
		t.Errorf("timing = %+v", tm)
	}
	tm = Measure(0, func() {}) // clamps to 1
	if tm.Runs != 1 {
		t.Errorf("Runs = %d, want 1", tm.Runs)
	}
}

func TestMeasureGeoMeanBetweenMinMax(t *testing.T) {
	i := 0
	tm := Measure(4, func() {
		i++
		time.Sleep(time.Duration(i) * 100 * time.Microsecond)
	})
	if tm.GeoMean < tm.Min || tm.GeoMean > tm.Max {
		t.Errorf("geomean %v outside [%v, %v]", tm.GeoMean, tm.Min, tm.Max)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Errorf("GeoMean(2,8) = %g, want 4", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %g", g)
	}
	if g := GeoMean([]float64{-1, 0}); g != 0 {
		t.Errorf("GeoMean(nonpositive) = %g", g)
	}
}

func TestHostInfo(t *testing.T) {
	h := Host()
	if h.NumCPU < 1 || h.GOMAXPROCS < 1 || h.GoVersion == "" {
		t.Errorf("Host = %+v", h)
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "b"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer,cell", `has "quotes"`)
	tb.AddNote("n1 %d", 7)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T ==", "a", "longer,cell", "note: n1 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	if !strings.Contains(csv, `"longer,cell"`) || !strings.Contains(csv, `"has ""quotes"""`) {
		t.Errorf("CSV escaping wrong:\n%s", csv)
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.Normalize()
	if c.Scale != 0.01 || c.Runs != 10 || c.K != 5 || c.Threads < 1 || c.Seed != 1 {
		t.Errorf("defaults = %+v", c)
	}
	c2 := Config{Scale: 0.5, Runs: 3, K: 7, Threads: 2, Seed: 9}.Normalize()
	if c2.Scale != 0.5 || c2.Runs != 3 || c2.K != 7 || c2.Threads != 2 || c2.Seed != 9 {
		t.Errorf("explicit config altered: %+v", c2)
	}
}

func TestSuiteSubset(t *testing.T) {
	cfg := Config{Matrices: []string{"pwtk", "cant"}}.Normalize()
	specs, err := cfg.suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "cant" || specs[1].Name != "pwtk" {
		t.Errorf("subset = %v (want Table II order)", specs)
	}
	cfg.Matrices = []string{"nope"}
	if _, err := cfg.suite(); err == nil {
		t.Error("accepted unknown matrix")
	}
	cfg.Matrices = nil
	specs, err = cfg.suite()
	if err != nil || len(specs) != 14 {
		t.Errorf("full suite = %d matrices, err %v", len(specs), err)
	}
}

func TestThreadSweep(t *testing.T) {
	if got := threadSweep(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("threadSweep(1) = %v", got)
	}
	if got := threadSweep(4); len(got) != 3 || got[2] != 4 {
		t.Errorf("threadSweep(4) = %v", got)
	}
	if got := threadSweep(6); got[len(got)-1] != 6 {
		t.Errorf("threadSweep(6) = %v", got)
	}
}

func TestDetVecDeterministic(t *testing.T) {
	a := detVec(100, 5)
	b := detVec(100, 5)
	c := detVec(100, 6)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same || !diff {
		t.Error("detVec not deterministic per seed")
	}
}

// TestLowerLevels: in a chain L, entries (i, i-1), each row waits on the
// one before it, so there is one level a row.
func TestLowerLevels(t *testing.T) {
	chain := sparse.NewCOO(10, 10, 9)
	for i := 1; i < 10; i++ {
		chain.Add(i, i-1, 1)
	}
	if got := lowerLevels(chain.ToCSR()); got != 10 {
		t.Errorf("lowerLevels(chain of 10) = %d, want 10", got)
	}
}

// Every experiment driver must run end-to-end on a tiny workload and
// produce non-empty output in both formats.
func TestAllExperimentsSmoke(t *testing.T) {
	cfg := fastCfg()
	for _, e := range Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, cfg); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Error("no output")
			}
			csvCfg := cfg
			csvCfg.CSV = true
			buf.Reset()
			if err := e.Run(&buf, csvCfg); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), ",") {
				t.Error("CSV output has no commas")
			}
		})
	}
}

func TestRegistryAndRun(t *testing.T) {
	if len(Names()) != len(Registry()) {
		t.Error("Names/Registry mismatch")
	}
	if _, err := Lookup("fig7"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Error("Lookup accepted bogus name")
	}
	var buf bytes.Buffer
	if err := Run(&buf, fastCfg(), []string{"tab4", "tab2"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Registry order: tab2 before tab4.
	if i2, i4 := strings.Index(out, "Table II"), strings.Index(out, "Table IV"); i2 < 0 || i4 < 0 || i2 > i4 {
		t.Errorf("Run order wrong: tab2 at %d, tab4 at %d", i2, i4)
	}
	if err := Run(&buf, fastCfg(), []string{"bogus"}); err == nil {
		t.Error("Run accepted bogus experiment")
	}
	if err := Run(&buf, fastCfg(), nil); err == nil {
		t.Error("Run accepted empty selection")
	}
}

func TestRunGroups(t *testing.T) {
	var buf bytes.Buffer
	cfg := fastCfg()
	cfg.Matrices = []string{"shipsec1"}
	if err := Run(&buf, cfg, []string{"tab1"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GOMAXPROCS") {
		t.Error("tab1 output missing host info")
	}
}
