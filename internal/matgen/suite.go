package matgen

import (
	"fmt"
	"math"

	"fbmpk/internal/sparse"
)

// Spec describes one matrix of the paper's evaluation suite (Table II)
// together with the synthetic generator standing in for it.
type Spec struct {
	ID        int    // Table II row number
	Name      string // paper name, e.g. "audikw_1"
	Class     string // structural family the generator mimics
	PaperRows int64  // rows reported in Table II
	PaperNNZ  int64  // nonzeros reported in Table II
	Symmetric bool

	build func(scale float64, seed uint64) *sparse.CSR
}

// NNZPerRow returns the paper's nnz/N density for the matrix.
func (s *Spec) NNZPerRow() float64 {
	return float64(s.PaperNNZ) / float64(s.PaperRows)
}

// Generate builds the synthetic stand-in at the given scale.
// scale is the approximate fraction of the paper's row count
// (scale 1.0 reproduces Table II sizes; 0.01 is a laptop default).
// The generated density (nnz/row) is scale-independent up to boundary
// effects.
func (s *Spec) Generate(scale float64, seed uint64) *sparse.CSR {
	if scale <= 0 {
		panic("matgen: scale must be positive")
	}
	return s.build(scale, seed)
}

// side3 scales a cubic grid side by scale^(1/3), clamped to >= 4.
func side3(base int, scale float64) int {
	s := int(math.Round(float64(base) * math.Cbrt(scale)))
	if s < 4 {
		s = 4
	}
	return s
}

// side2 scales a square grid side by scale^(1/2), clamped to >= 8.
func side2(base int, scale float64) int {
	s := int(math.Round(float64(base) * math.Sqrt(scale)))
	if s < 8 {
		s = 8
	}
	return s
}

// grid3 builds a Spec generator for a 3D stencil family. The keep
// probability is derived from the target density: a full radius-1
// stencil with dof-vector nodes has 27*dof entries per row; thinning
// brings it down to the paper's nnz/N.
func grid3(baseSide, dof int, targetPerRow float64, symmetric bool) func(float64, uint64) *sparse.CSR {
	full := float64(27*dof - 1)
	keep := (targetPerRow - 1) / full
	if keep > 1 {
		keep = 1
	}
	return func(scale float64, seed uint64) *sparse.CSR {
		side := side3(baseSide, scale)
		return Grid(GridParams{
			NX: side, NY: side, NZ: side,
			DOF: dof, Radius: 1,
			KeepProb:  keep,
			Symmetric: symmetric,
			Periodic:  true,
			Seed:      seed,
		})
	}
}

func grid2(baseSide, dof int, targetPerRow float64, radius int) func(float64, uint64) *sparse.CSR {
	stencil := (2*radius + 1) * (2*radius + 1)
	full := float64(stencil*dof - 1)
	keep := (targetPerRow - 1) / full
	if keep > 1 {
		keep = 1
	}
	return func(scale float64, seed uint64) *sparse.CSR {
		side := side2(baseSide, scale)
		return Grid(GridParams{
			NX: side, NY: side, NZ: 1,
			DOF: dof, Radius: radius,
			KeepProb:  keep,
			Symmetric: true,
			Periodic:  true,
			Seed:      seed,
		})
	}
}

// Suite returns the 14-matrix evaluation suite in Table II order.
func Suite() []Spec {
	return []Spec{
		{ID: 1, Name: "af_shell10", Class: "2D shell FEM (sheet metal forming)",
			PaperRows: 1_508_065, PaperNNZ: 52_672_325, Symmetric: true,
			build: grid2(614, 4, 34.93, 1)},
		{ID: 2, Name: "audikw_1", Class: "3D solid FEM, 3-DOF nodes (crankshaft)",
			PaperRows: 943_695, PaperNNZ: 77_651_847, Symmetric: true,
			build: grid3(68, 3, 81, true)},
		{ID: 3, Name: "cage14", Class: "directed weighted graph (DNA electrophoresis)",
			PaperRows: 1_505_785, PaperNNZ: 27_130_349, Symmetric: false,
			build: func(scale float64, seed uint64) *sparse.CSR {
				n := int(math.Round(1_505_785 * scale))
				if n < 64 {
					n = 64
				}
				return Digraph(DigraphParams{N: n, OutDegree: 17, BandFrac: 0.02, Seed: seed})
			}},
		{ID: 4, Name: "cant", Class: "3D cantilever FEM",
			PaperRows: 62_451, PaperNNZ: 4_007_383, Symmetric: true,
			build: grid3(28, 3, 64.17, true)},
		{ID: 5, Name: "Flan_1565", Class: "3D steel flange, hexahedral FEM",
			PaperRows: 1_564_794, PaperNNZ: 117_406_044, Symmetric: true,
			build: grid3(80, 3, 75.03, true)},
		{ID: 6, Name: "G3_circuit", Class: "circuit simulation (grid-like, very sparse)",
			PaperRows: 1_585_478, PaperNNZ: 7_660_826, Symmetric: true,
			build: func(scale float64, seed uint64) *sparse.CSR {
				side := side2(1261, scale)
				return Grid(GridParams{NX: side, NY: side, NZ: 1, DOF: 1, Radius: 1,
					KeepProb: (4.83 - 1) / 8.0, Symmetric: true, Periodic: true, Seed: seed})
			}},
		{ID: 7, Name: "Hook_1498", Class: "3D structural FEM (hook)",
			PaperRows: 1_498_023, PaperNNZ: 60_917_445, Symmetric: true,
			build: grid3(91, 2, 40.67, true)},
		{ID: 8, Name: "inline_1", Class: "3D structural FEM (inline skater)",
			PaperRows: 503_712, PaperNNZ: 36_816_342, Symmetric: true,
			build: grid3(55, 3, 73.09, true)},
		{ID: 9, Name: "ldoor", Class: "3D structural FEM (large door)",
			PaperRows: 952_203, PaperNNZ: 46_522_475, Symmetric: true,
			build: grid3(78, 2, 48.86, true)},
		{ID: 10, Name: "ML_Geer", Class: "meshless Petrov-Galerkin (unsymmetric values)",
			PaperRows: 1_504_002, PaperNNZ: 110_879_972, Symmetric: false,
			build: grid3(79, 3, 73.72, false)},
		{ID: 11, Name: "nlpkkt120", Class: "saddle-point KKT (PDE-constrained optimization)",
			PaperRows: 3_542_400, PaperNNZ: 96_845_792, Symmetric: true,
			build: func(scale float64, seed uint64) *sparse.CSR {
				return KKT(KKTParams{Side: side3(121, scale), Seed: seed})
			}},
		{ID: 12, Name: "pwtk", Class: "pressurized wind tunnel stiffness",
			PaperRows: 217_918, PaperNNZ: 11_634_424, Symmetric: true,
			build: grid3(48, 2, 53.39, true)},
		{ID: 13, Name: "Serena", Class: "3D gas-reservoir FEM",
			PaperRows: 1_391_349, PaperNNZ: 64_531_701, Symmetric: true,
			build: grid3(89, 2, 46.38, true)},
		{ID: 14, Name: "shipsec1", Class: "ship section FEM",
			PaperRows: 140_874, PaperNNZ: 7_813_404, Symmetric: true,
			build: grid3(41, 2, 54, true)},
	}
}

// ByName returns the Spec with the given paper name (case-sensitive).
func ByName(name string) (*Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			s := s
			return &s, nil
		}
	}
	names := Names()
	return nil, fmt.Errorf("matgen: unknown matrix %q (have %v)", name, names)
}

// Names returns the suite matrix names in Table II order.
func Names() []string {
	suite := Suite()
	names := make([]string, len(suite))
	for i, s := range suite {
		names[i] = s.Name
	}
	return names
}

// Stats summarizes a generated matrix for Table II style reporting.
type Stats struct {
	Rows      int
	NNZ       int64
	PerRow    float64
	MinRow    int
	MaxRow    int
	Bandwidth int
	Symmetric bool
}

// Describe computes structural statistics of a matrix. symCheck
// enables the (O(nnz log) and allocation-heavy) symmetry test; pass
// false for large matrices when the symmetry is already known.
func Describe(m *sparse.CSR, symCheck bool) Stats {
	st := Stats{Rows: m.Rows, NNZ: m.NNZ()}
	if m.Rows > 0 {
		st.PerRow = float64(st.NNZ) / float64(m.Rows)
		st.MinRow = m.RowNNZ(0)
		for i := 0; i < m.Rows; i++ {
			w := m.RowNNZ(i)
			if w < st.MinRow {
				st.MinRow = w
			}
			if w > st.MaxRow {
				st.MaxRow = w
			}
		}
	}
	st.Bandwidth = m.Bandwidth()
	if symCheck {
		st.Symmetric = m.IsSymmetric(0)
	}
	return st
}
