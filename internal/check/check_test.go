package check

import (
	"math/rand"
	"testing"

	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

func randomCSR(rng *rand.Rand, n, perRow int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, n*(perRow+1))
	for i := 0; i < n; i++ {
		if rng.Intn(4) > 0 { // leave some diagonals unstored
			coo.Add(i, i, 0.5+rng.Float64())
		}
		for k := 0; k < perRow; k++ {
			coo.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

func TestCSRAcceptsValidRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomCSR(rng, 30, 3)
	if err := CSR(m); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	if err := CSR(nil); err == nil {
		t.Fatal("nil matrix accepted")
	}
	bad := m.Transpose().Transpose()  // a copy that owns its storage
	bad.RowPtr[5] = bad.RowPtr[6] + 1 // break monotonicity
	if err := CSR(bad); err == nil {
		t.Fatal("non-monotone RowPtr accepted")
	}
	bad = m.Transpose().Transpose()
	if len(bad.ColIdx) > 0 {
		bad.ColIdx[0] = int32(bad.Cols) // out of range
		if err := CSR(bad); err == nil {
			t.Fatal("out-of-range column accepted")
		}
	}
}

func TestSplitReassembly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(40)
		a := randomCSR(rng, n, rng.Intn(4))
		tri, err := sparse.Split(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := Split(a, tri); err != nil {
			t.Fatalf("trial %d: valid split rejected: %v", trial, err)
		}
	}
}

func TestSplitDetectsTampering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(rng, 25, 3)
	tri, err := sparse.Split(a)
	if err != nil {
		t.Fatal(err)
	}

	if len(tri.L.Val) == 0 {
		t.Skip("no lower entries to tamper with")
	}
	tri.L.Val[0] += 1e-9
	if err := Split(a, tri); err == nil {
		t.Fatal("tampered L value accepted")
	}
	tri.L.Val[0] -= 1e-9

	tri.D[7] += 1
	if err := Split(a, tri); err == nil {
		t.Fatal("tampered diagonal accepted")
	}
	tri.D[7] -= 1

	// Move a lower entry above the diagonal: Triangular.Validate must
	// catch the strictness violation.
	row := -1
	for i := 0; i < tri.N; i++ {
		if tri.L.RowNNZ(i) > 0 {
			row = i
			break
		}
	}
	if row >= 0 {
		save := tri.L.ColIdx[tri.L.RowPtr[row]]
		tri.L.ColIdx[tri.L.RowPtr[row]] = int32(row)
		if err := Split(a, tri); err == nil {
			t.Fatal("on-diagonal entry in L accepted")
		}
		tri.L.ColIdx[tri.L.RowPtr[row]] = save
	}
	if err := Split(a, tri); err != nil {
		t.Fatalf("restored split rejected: %v", err)
	}
}

func TestPermBijectivityAndRoundTrip(t *testing.T) {
	p := make(reorder.Perm, 50)
	for i := range p {
		p[i] = int32(i)
	}
	if err := Perm(p); err != nil {
		t.Fatalf("identity rejected: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	if err := Perm(p); err != nil {
		t.Fatalf("shuffled permutation rejected: %v", err)
	}
	p[3] = p[4] // duplicate target
	if err := Perm(p); err == nil {
		t.Fatal("non-bijective permutation accepted")
	}
	p[3] = int32(len(p)) // out of range
	if err := Perm(p); err == nil {
		t.Fatal("out-of-range permutation accepted")
	}
}

func TestABMCColorIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomCSR(rng, 60, 3)
	ord, b, err := reorder.ABMCReorder(a, reorder.ABMCOptions{NumBlocks: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := ABMC(ord, b); err != nil {
		t.Fatalf("valid ordering rejected: %v", err)
	}
	// Validating against the UNPERMUTED matrix must fail unless the
	// permutation happens to be trivial for every block edge — force a
	// clear violation instead: claim everything is one color.
	if ord.NumColors > 1 {
		flat := &reorder.ABMCResult{
			Perm:      ord.Perm,
			BlockPtr:  ord.BlockPtr,
			ColorPtr:  []int32{0, int32(ord.NumBlocks())},
			NumColors: 1,
		}
		if err := ABMC(flat, b); err == nil {
			t.Fatal("single-color claim over coupled blocks accepted")
		}
	}
}
