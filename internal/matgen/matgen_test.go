package matgen

import (
	"math"
	"reflect"
	"testing"

	"fbmpk/internal/sparse"
)

func TestGridBasicLaplacian(t *testing.T) {
	// 2D 5-point-like: radius 1, keep 0.5 of the 8 neighbors on
	// average; here keep everything for determinism.
	m := Grid(GridParams{NX: 4, NY: 4, NZ: 1, DOF: 1, Radius: 1, KeepProb: 1, Symmetric: true, Seed: 1})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Rows != 16 {
		t.Fatalf("rows = %d, want 16", m.Rows)
	}
	// Interior node has 9 entries (8 neighbors + self).
	if got := m.RowNNZ(5); got != 9 {
		t.Errorf("interior row nnz = %d, want 9", got)
	}
	// Corner has 4.
	if got := m.RowNNZ(0); got != 4 {
		t.Errorf("corner row nnz = %d, want 4", got)
	}
	if !m.IsSymmetric(0) {
		t.Error("symmetric grid matrix is not symmetric")
	}
}

func TestGridDiagonalDominance(t *testing.T) {
	m := Grid(GridParams{NX: 5, NY: 5, NZ: 3, DOF: 2, Radius: 1, KeepProb: 0.7, Symmetric: true, Seed: 3})
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		var diag, off float64
		for k, c := range cols {
			if int(c) == i {
				diag = vals[k]
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag < off {
			t.Fatalf("row %d not diagonally dominant: diag %g < off %g", i, diag, off)
		}
	}
}

func TestGridThinnedSymmetry(t *testing.T) {
	// Thinning decisions use a symmetric pair hash, so the pattern and
	// values must stay symmetric at any keep probability.
	for _, keep := range []float64{0.3, 0.6, 0.9} {
		m := Grid(GridParams{NX: 6, NY: 5, NZ: 4, DOF: 3, Radius: 1, KeepProb: keep, Symmetric: true, Seed: 7})
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if !m.IsSymmetric(0) {
			t.Errorf("keep=%g: thinned matrix lost symmetry", keep)
		}
	}
}

func TestGridDeterminism(t *testing.T) {
	p := GridParams{NX: 7, NY: 6, NZ: 2, DOF: 2, Radius: 1, KeepProb: 0.5, Symmetric: true, Seed: 42}
	a := Grid(p)
	b := Grid(p)
	if !reflect.DeepEqual(a, b) {
		t.Error("same params produced different matrices")
	}
	p.Seed = 43
	c := Grid(p)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical matrices")
	}
}

func TestGridUnsymmetricValues(t *testing.T) {
	m := Grid(GridParams{NX: 6, NY: 6, NZ: 3, DOF: 3, Radius: 1, KeepProb: 0.9, Symmetric: false, Seed: 5})
	if m.IsSymmetric(1e-12) {
		t.Error("unsymmetric grid matrix is value-symmetric")
	}
}

func TestDigraphProperties(t *testing.T) {
	m := Digraph(DigraphParams{N: 500, OutDegree: 17, BandFrac: 0.02, Seed: 9})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Rows != 500 {
		t.Fatalf("rows = %d", m.Rows)
	}
	// Row sums near 1 (sub-stochastic by construction: 0.25 diag +
	// ~0.75 spread over neighbors with mean weight factor 1.0).
	x := make([]float64, m.Rows)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, m.Rows)
	sparse.SpMV(m, x, y)
	for i, v := range y {
		if v < 0.3 || v > 2.0 {
			t.Fatalf("row %d sum %g outside sane stochastic range", i, v)
		}
	}
	if m.IsSymmetric(1e-12) {
		t.Error("digraph should be unsymmetric")
	}
}

func TestKKTStructure(t *testing.T) {
	m := KKT(KKTParams{Side: 5, Seed: 11})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	n := m.Rows
	if n != 2*5*5*5 {
		t.Fatalf("rows = %d, want 250", n)
	}
	if !m.IsSymmetric(1e-13) {
		t.Error("KKT matrix must be symmetric")
	}
	// Dual block diagonal is zero.
	for i := n / 2; i < n; i++ {
		if m.At(i, i) != 0 {
			t.Fatalf("dual diagonal (%d,%d) = %g, want 0", i, i, m.At(i, i))
		}
	}
	// Primal block diagonal is positive.
	for i := 0; i < n/2; i++ {
		if m.At(i, i) <= 0 {
			t.Fatalf("primal diagonal (%d,%d) = %g, want > 0", i, i, m.At(i, i))
		}
	}
}

func TestSuiteCompleteAndOrdered(t *testing.T) {
	suite := Suite()
	if len(suite) != 14 {
		t.Fatalf("suite has %d matrices, want 14", len(suite))
	}
	for i, s := range suite {
		if s.ID != i+1 {
			t.Errorf("suite[%d].ID = %d, want %d", i, s.ID, i+1)
		}
		if s.PaperRows <= 0 || s.PaperNNZ <= 0 {
			t.Errorf("%s: missing paper stats", s.Name)
		}
	}
	if _, err := ByName("audikw_1"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted unknown matrix")
	}
	if got := len(Names()); got != 14 {
		t.Errorf("Names() returned %d entries", got)
	}
}

// TestSuiteDensityMatchesPaper checks that at small scale every
// generator's nnz/row is within 30% of Table II (boundary effects
// shrink densities at small grids; the tolerance allows for that).
func TestSuiteDensityMatchesPaper(t *testing.T) {
	for _, s := range Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			m := s.Generate(0.002, 1)
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			got := float64(m.NNZ()) / float64(m.Rows)
			want := s.NNZPerRow()
			if got < want*0.70 || got > want*1.30 {
				t.Errorf("nnz/row = %.2f, paper %.2f (out of 30%% band)", got, want)
			}
		})
	}
}

// TestSuiteSymmetryMatchesPaper verifies each generator's symmetry
// flag against Table II (cage14 and ML_Geer are the unsymmetric pair).
func TestSuiteSymmetryMatchesPaper(t *testing.T) {
	for _, s := range Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			m := s.Generate(0.001, 2)
			if got := m.IsSymmetric(0); got != s.Symmetric {
				t.Errorf("IsSymmetric = %v, Table II says %v", got, s.Symmetric)
			}
		})
	}
}

func TestSuiteScaleGrowsRows(t *testing.T) {
	s, err := ByName("cant")
	if err != nil {
		t.Fatal(err)
	}
	small := s.Generate(0.005, 1)
	large := s.Generate(0.04, 1)
	if large.Rows <= small.Rows {
		t.Errorf("scale 0.04 rows %d <= scale 0.005 rows %d", large.Rows, small.Rows)
	}
}

func TestDescribe(t *testing.T) {
	m := Grid(GridParams{NX: 6, NY: 6, NZ: 1, DOF: 1, Radius: 1, KeepProb: 1, Symmetric: true, Seed: 1})
	st := Describe(m, true)
	if st.Rows != 36 || !st.Symmetric {
		t.Errorf("Describe = %+v", st)
	}
	if st.MinRow != 4 || st.MaxRow != 9 {
		t.Errorf("row width range [%d,%d], want [4,9]", st.MinRow, st.MaxRow)
	}
	if st.Bandwidth != 7 {
		t.Errorf("bandwidth = %d, want 7", st.Bandwidth)
	}
}

// TestSortedByID holds that Suite lists Table II in ID order, 1 to 14,
// the order every table of the evaluation prints.
func TestSortedByID(t *testing.T) {
	for i, s := range Suite() {
		if s.ID != i+1 {
			t.Errorf("Suite()[%d] is %s with ID %d, want ID %d", i, s.Name, s.ID, i+1)
		}
	}
}

func TestGridPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Grid accepted zero dimension")
		}
	}()
	Grid(GridParams{NX: 0, NY: 1, NZ: 1, DOF: 1})
}
