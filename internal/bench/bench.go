// Package bench regenerates the tables and figures of the paper's
// evaluation section, plus the three ablations that quantify a paper
// section (see DESIGN.md §4 for the per-experiment index). Each driver
// builds the workload, times the kernels following the paper's
// methodology — geometric mean over repeated runs, preprocessing
// excluded — and renders the same rows/series the paper reports. It
// prints tables and records nothing: measuring the system, out of cache
// and verified, is the repo benchmark (benchmark/, BENCHMARK.json).
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Timing summarizes repeated wall-clock measurements of one kernel.
type Timing struct {
	Runs    int
	GeoMean time.Duration
	Min     time.Duration
	Max     time.Duration
}

// Measure times f over runs repetitions (after one untimed warm-up)
// and reports the geometric mean, the statistic the paper uses
// (Section IV-C: "we run each test case 50 times ... and report the
// geometric mean of the runtime").
func Measure(runs int, f func()) Timing {
	if runs < 1 {
		runs = 1
	}
	f() // warm-up: page in buffers, settle the branch predictors
	t := Timing{Runs: runs, Min: time.Duration(math.MaxInt64)}
	logSum := 0.0
	for r := 0; r < runs; r++ {
		start := time.Now()
		f()
		d := time.Since(start)
		if d < time.Nanosecond {
			d = time.Nanosecond
		}
		logSum += math.Log(float64(d))
		if d < t.Min {
			t.Min = d
		}
		if d > t.Max {
			t.Max = d
		}
	}
	t.GeoMean = time.Duration(math.Exp(logSum / float64(runs)))
	return t
}

// GeoMean returns the geometric mean of a slice of positive values
// (used to aggregate per-matrix speedups into the "average" bars of
// Figs 7, 8 and 10). Non-positive values are skipped.
func GeoMean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// HostInfo describes the machine running the experiments; it is the
// closest available analogue of Table I.
type HostInfo struct {
	OS         string
	Arch       string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
}

// Host collects the current host description.
func Host() HostInfo {
	return HostInfo{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// Table is a rendered experiment result: a titled grid with a header
// row. Render prints an aligned text table; RenderCSV emits
// machine-readable output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (header first, notes as comments).
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	esc := func(c string) string {
		if strings.ContainsAny(c, ",\"\n") {
			return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		return c
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Config controls the workload of the experiment drivers.
type Config struct {
	// Scale is the fraction of the paper's matrix sizes to generate
	// (1.0 = full Table II sizes; default 0.01 for laptop runs).
	Scale float64
	// Seed makes generated matrices reproducible.
	Seed uint64
	// Runs is the repetition count per timing (paper: 50).
	Runs int
	// Threads used by parallel engines (0 = GOMAXPROCS).
	Threads int
	// Matrices restricts the suite by name; empty = all 14.
	Matrices []string
	// K is the MPK power for single-k experiments (0 = paper's 5).
	K int
	// CSV switches the output format.
	CSV bool
}

// Normalize fills defaults in place and returns the config.
func (c Config) Normalize() Config {
	if c.Scale <= 0 {
		c.Scale = 0.01
	}
	if c.Runs <= 0 {
		c.Runs = 10
	}
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.K <= 0 {
		c.K = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Emit renders the table in the format the config selects.
func (c Config) Emit(w io.Writer, t *Table) error {
	if c.CSV {
		return t.RenderCSV(w)
	}
	return t.Render(w)
}

// f2 and f3 format floats with fixed precision for table cells.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

// sortedCopy returns a sorted copy of names (stable test output).
func sortedCopy(names []string) []string {
	out := make([]string, len(names))
	copy(out, names)
	sort.Strings(out)
	return out
}
