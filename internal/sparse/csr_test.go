package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// paperExample is the 4x4 matrix from Fig 1 of the paper:
//
//	a . b .
//	. . . .
//	c d . e
//	. . f g
func paperExample() *CSR {
	m := &CSR{Rows: 4, Cols: 4,
		RowPtr: []int64{0, 2, 2, 5, 7},
		ColIdx: []int32{0, 2, 0, 1, 3, 2, 3},
		Val:    []float64{1, 2, 3, 4, 5, 6, 7},
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// randomCSR builds a random square CSR matrix with roughly density*n
// entries per row plus a full diagonal.
func randomCSR(rng *rand.Rand, n int, perRow int) *CSR {
	coo := NewCOO(n, n, n*(perRow+1))
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1+rng.Float64())
		for k := 0; k < perRow; k++ {
			j := rng.Intn(n)
			coo.Add(i, j, rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

// randomSymCSR builds a random symmetric CSR matrix with full diagonal.
func randomSymCSR(rng *rand.Rand, n int, perRow int) *CSR {
	coo := NewCOO(n, n, 2*n*(perRow+1))
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2+rng.Float64())
		for k := 0; k < perRow; k++ {
			j := rng.Intn(n)
			v := rng.NormFloat64()
			coo.AddSym(i, j, v)
		}
	}
	return coo.ToCSR()
}

func TestPaperExampleStructure(t *testing.T) {
	m := paperExample()
	if got := m.NNZ(); got != 7 {
		t.Fatalf("NNZ = %d, want 7", got)
	}
	if got := m.At(2, 1); got != 4 {
		t.Errorf("At(2,1) = %g, want 4", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %g, want 0", got)
	}
	if got := m.RowNNZ(1); got != 0 {
		t.Errorf("RowNNZ(1) = %d, want 0", got)
	}
	if s := m.String(); s != "CSR 4x4 nnz=7" {
		t.Errorf("String() = %q", s)
	}
}

func TestValidateRejectsBadStructures(t *testing.T) {
	cases := []struct {
		name string
		m    CSR
	}{
		{"short rowptr", CSR{Rows: 2, Cols: 2, RowPtr: []int64{0, 0}}},
		{"nonzero start", CSR{Rows: 1, Cols: 1, RowPtr: []int64{1, 1}}},
		{"nonmonotone", CSR{Rows: 2, Cols: 2, RowPtr: []int64{0, 2, 1},
			ColIdx: []int32{0, 1}, Val: []float64{1, 2}}},
		{"col out of range", CSR{Rows: 1, Cols: 1, RowPtr: []int64{0, 1},
			ColIdx: []int32{1}, Val: []float64{1}}},
		{"negative col", CSR{Rows: 1, Cols: 2, RowPtr: []int64{0, 1},
			ColIdx: []int32{-1}, Val: []float64{1}}},
		{"unsorted row", CSR{Rows: 1, Cols: 3, RowPtr: []int64{0, 2},
			ColIdx: []int32{2, 0}, Val: []float64{1, 2}}},
		{"duplicate col", CSR{Rows: 1, Cols: 3, RowPtr: []int64{0, 2},
			ColIdx: []int32{1, 1}, Val: []float64{1, 2}}},
		{"nnz mismatch", CSR{Rows: 1, Cols: 3, RowPtr: []int64{0, 3},
			ColIdx: []int32{0, 1}, Val: []float64{1, 2}}},
		// Regression (found by FuzzAPIBoundary): RowPtr overshoots nnz
		// in the middle but collapses back by the last entry, so the
		// length check passes; Validate used to index ColIdx out of
		// range (a panic inside the validator) instead of reporting
		// the non-monotone tail.
		{"overshoot then collapse", CSR{Rows: 4, Cols: 48,
			RowPtr: []int64{0, 32, 32, 32, 0}}},
	}
	for _, c := range cases {
		if err := c.m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid matrix", c.name)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		m := randomCSR(rng, n, 1+rng.Intn(5))
		tt := m.Transpose().Transpose()
		if !reflect.DeepEqual(m, tt) {
			t.Fatalf("trial %d: transpose(transpose(A)) != A", trial)
		}
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomCSR(rng, 15, 3)
	d := m.ToDense()
	tr := m.Transpose()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if tr.At(j, i) != d[i][j] {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sym := randomSymCSR(rng, 30, 3)
	if !sym.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	asym := randomCSR(rng, 30, 3)
	// A random matrix is symmetric with negligible probability.
	if asym.IsSymmetric(1e-15) {
		t.Error("random matrix reported symmetric")
	}
	rect := &CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 0, 0}, ColIdx: nil, Val: nil}
	if rect.IsSymmetric(0) {
		t.Error("rectangular matrix reported symmetric")
	}
}

func TestDiagonal(t *testing.T) {
	m := paperExample()
	d := m.Diagonal()
	want := []float64{1, 0, 0, 7}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("Diagonal[%d] = %g, want %g", i, d[i], want[i])
		}
	}
}

func TestBandwidth(t *testing.T) {
	m := paperExample()
	if got := m.Bandwidth(); got != 2 {
		t.Errorf("Bandwidth = %d, want 2", got)
	}
	empty := &CSR{Rows: 3, Cols: 3, RowPtr: []int64{0, 0, 0, 0}}
	if got := empty.Bandwidth(); got != 0 {
		t.Errorf("empty Bandwidth = %d, want 0", got)
	}
}

// TestCloneIndependence holds that a transpose owns its storage: editing
// one leaves the matrix it was made from as it was.
func TestCloneIndependence(t *testing.T) {
	m := paperExample()
	c := m.Transpose().Transpose()
	c.Val[0], c.ColIdx[0], c.RowPtr[1] = 99, 1, 1
	if !reflect.DeepEqual(m, paperExample()) {
		t.Error("original mutated by an edit of its transpose")
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	coo := NewCOO(2, 2, 4)
	coo.Add(0, 1, 2)
	coo.Add(0, 1, 3)
	coo.Add(1, 0, -1)
	coo.Add(1, 0, 1)
	m := coo.ToCSR()
	if got := m.At(0, 1); got != 5 {
		t.Errorf("summed duplicate = %g, want 5", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("cancelled duplicate = %g, want 0 (retained)", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2 (zeros retained)", m.NNZ())
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add out of range did not panic")
		}
	}()
	NewCOO(1, 1, 0).Add(0, 1, 1)
}

// Property: for any set of triplets, ToCSR produces a valid CSR whose
// dense expansion equals the summed triplets.
func TestCOOPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		coo := NewCOO(n, n, 0)
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
		}
		entries := rng.Intn(60)
		for e := 0; e < entries; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			v := float64(rng.Intn(7) - 3)
			coo.Add(i, j, v)
			dense[i][j] += v
		}
		m := coo.ToCSR()
		if err := m.Validate(); err != nil {
			return false
		}
		got := m.ToDense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(got[i][j]-dense[i][j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMemoryBytes(t *testing.T) {
	m := paperExample()
	// RowPtr 5*8 + ColIdx 7*4 + Val 7*8 = 40+28+56 = 124.
	if got := m.MemoryBytes(); got != 124 {
		t.Errorf("MemoryBytes = %d, want 124", got)
	}
}

// ToDense expands the matrix into a row-major dense matrix.
func (m *CSR) ToDense() [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
		cols, vals := m.Row(i)
		for k, c := range cols {
			d[i][c] = vals[k]
		}
	}
	return d
}
