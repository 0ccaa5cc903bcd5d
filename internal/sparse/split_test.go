package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitPaperExample(t *testing.T) {
	m := paperExample()
	tri, err := Split(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := tri.Validate(); err != nil {
		t.Fatal(err)
	}
	// L holds (2,0)=3 (2,1)=4 (3,2)=6; U holds (0,2)=2 (2,3)=5.
	if tri.L.NNZ() != 3 || tri.U.NNZ() != 2 {
		t.Fatalf("L nnz=%d U nnz=%d, want 3 and 2", tri.L.NNZ(), tri.U.NNZ())
	}
	if tri.D[0] != 1 || tri.D[1] != 0 || tri.D[2] != 0 || tri.D[3] != 7 {
		t.Errorf("D = %v, want [1 0 0 7]", tri.D)
	}
	if tri.L.At(2, 1) != 4 {
		t.Errorf("L(2,1) = %g, want 4", tri.L.At(2, 1))
	}
	if tri.U.At(0, 2) != 2 {
		t.Errorf("U(0,2) = %g, want 2", tri.U.At(0, 2))
	}
}

func TestSplitRejectsRectangular(t *testing.T) {
	m := &CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 0, 0}}
	if _, err := Split(m); err == nil {
		t.Error("Split accepted rectangular matrix")
	}
}

// Property (DESIGN.md §5): L + D + U recomposes to A on the union of
// A's pattern and the full diagonal, with L strictly lower and U
// strictly upper.
func TestSplitRecomposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		a := randomCSR(rng, n, rng.Intn(6))
		tri, err := Split(a)
		if err != nil || tri.Validate() != nil {
			return false
		}
		r := tri.Recompose()
		if r.Validate() != nil {
			return false
		}
		// Compare densely: Recompose always stores the diagonal, so
		// pattern equality cannot be assumed, but values must match.
		da, dr := a.ToDense(), r.ToDense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if da[i][j] != dr[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSplitTriangularSpMVMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(50)
		a := randomCSR(rng, n, 3)
		tri, err := Split(a)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// The exact L+D+U reassembly applied to x must reproduce the
		// full SpMV (to rounding: Recompose stores absent diagonals as
		// explicit zeros, which shifts the kernel's unroll lanes).
		yFull := make([]float64, n)
		ySplit := make([]float64, n)
		SpMV(a, x, yFull)
		SpMV(tri.Recompose(), x, ySplit)
		if d := MaxAbsDiff(yFull, ySplit); d > 1e-12 {
			t.Fatalf("trial %d: split SpMV differs from full by %g", trial, d)
		}
	}
}

func TestSplitStorageTableIV(t *testing.T) {
	// Table IV: split format stores nnz-n off-diagonal indices/values,
	// two row-pointer arrays, and an n-vector diagonal.
	rng := rand.New(rand.NewSource(8))
	a := randomSymCSR(rng, 64, 4)
	tri, err := Split(a)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(a.Rows)
	nnz := a.NNZ()
	offDiag := tri.L.NNZ() + tri.U.NNZ()
	diagStored := int64(0)
	for i := 0; i < a.Rows; i++ {
		if a.At(i, i) != 0 {
			diagStored++
		}
	}
	if offDiag+diagStored != nnz {
		t.Errorf("off-diagonal %d + diagonal %d != nnz %d", offDiag, diagStored, nnz)
	}
	wantBytes := offDiag*4 + offDiag*8 + 2*(n+1)*8 + n*8
	if got := tri.MemoryBytes(); got != wantBytes {
		t.Errorf("MemoryBytes = %d, want %d", got, wantBytes)
	}
}

func TestSplitValidateCatchesCorruption(t *testing.T) {
	a := paperExample()
	tri, _ := Split(a)
	// Move an L entry onto the diagonal.
	tri.L.ColIdx[0] = 2 // row 2 entry now (2,2)
	if err := tri.Validate(); err == nil {
		t.Error("Validate accepted L entry on diagonal")
	}
}

// TestTriangularWithValues: dealing a value array into an existing
// split — directly, or through a slot map as a reordered plan does — is
// bitwise the split of the matrix holding those values, on rows with
// and without a stored diagonal and on empty rows.
func TestTriangularWithValues(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 60
	coo := NewCOO(n, n, 5*n)
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			coo.Add(i, i, 1+rng.Float64()) // every third row has no stored diagonal
		}
		for k := 0; k < i%5; k++ { // rows 0, 5, ... are empty or diagonal-only
			coo.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	a := coo.ToCSR()
	tri, err := Split(a)
	if err != nil {
		t.Fatal(err)
	}
	// New values live in a shuffled array; slot[j] says where entry j's is.
	slot := make([]int64, len(a.Val))
	for j, p := range rng.Perm(len(a.Val)) {
		slot[j] = int64(p)
	}
	b := a.Clone()
	shuffled := make([]float64, len(a.Val))
	for j := range b.Val {
		b.Val[j] = rng.NormFloat64()
		shuffled[slot[j]] = b.Val[j]
	}
	want, err := Split(b)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Triangular{
		"identity": tri.WithValues(a.RowPtr, b.Val, nil),
		"slot map": tri.WithValues(a.RowPtr, shuffled, slot),
	} {
		if MaxAbsDiff(got.L.Val, want.L.Val) != 0 || MaxAbsDiff(got.U.Val, want.U.Val) != 0 || MaxAbsDiff(got.D, want.D) != 0 {
			t.Errorf("%s: values differ from a fresh split", name)
		}
		if &got.L.ColIdx[0] != &tri.L.ColIdx[0] || &got.U.RowPtr[0] != &tri.U.RowPtr[0] {
			t.Errorf("%s: structure arrays not shared with the receiver", name)
		}
	}
	if MaxAbsDiff(tri.D, want.D) == 0 {
		t.Error("receiver was modified")
	}
}
