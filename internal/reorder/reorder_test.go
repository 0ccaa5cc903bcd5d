package reorder

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fbmpk/internal/sparse"
)

func randomSym(rng *rand.Rand, n, perRow int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 2*n*(perRow+1))
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2+rng.Float64())
		for k := 0; k < perRow; k++ {
			coo.AddSym(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func tridiag(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	return coo.ToCSR()
}

func TestPermBasics(t *testing.T) {
	p := Perm{2, 0, 1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	inv := p.Inverse()
	want := Perm{1, 2, 0}
	for i := range want {
		if inv[i] != want[i] {
			t.Fatalf("Inverse = %v, want %v", inv, want)
		}
	}
	// p ∘ p⁻¹ = id.
	for i, v := range p {
		if int(inv[v]) != i {
			t.Fatalf("inv[p[%d]] = %d, not the identity", i, inv[v])
		}
	}
	if (Perm{0, 0, 1}).Validate() == nil {
		t.Error("Validate accepted duplicate")
	}
	if (Perm{0, 3, 1}).Validate() == nil {
		t.Error("Validate accepted out of range")
	}
}

func TestPermVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 50
	idx := rng.Perm(n)
	perm := make(Perm, n)
	for i, v := range idx {
		perm[i] = int32(v)
	}
	x := randVec(rng, n)
	y := make([]float64, n)
	back := make([]float64, n)
	perm.ApplyVec(x, y)
	perm.UnapplyVec(y, back)
	if sparse.MaxAbsDiff(x, back) != 0 {
		t.Error("Unapply(Apply(x)) != x")
	}
}

// Property: SpMV commutes with symmetric permutation:
// P(Ax) = (PAPᵀ)(Px).
func TestApplySymCommutesWithSpMV(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		a := randomSym(rng, n, 1+rng.Intn(4))
		idx := rng.Perm(n)
		perm := make(Perm, n)
		for i, v := range idx {
			perm[i] = int32(v)
		}
		b, err := perm.ApplySym(a)
		if err != nil || b.Validate() != nil {
			return false
		}
		x := randVec(rng, n)
		ax := make([]float64, n)
		sparse.SpMV(a, x, ax)
		pax := make([]float64, n)
		perm.ApplyVec(ax, pax)

		px := make([]float64, n)
		perm.ApplyVec(x, px)
		bpx := make([]float64, n)
		sparse.SpMV(b, px, bpx)
		return sparse.MaxAbsDiff(pax, bpx) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestApplySymIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomSym(rng, 20, 3)
	b, err := identity(20).ApplySym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("identity permutation changed the matrix")
	}
}

func TestRCMReducesBandwidthOnShuffledBand(t *testing.T) {
	// Take a banded matrix, shuffle it, and check RCM recovers a small
	// bandwidth.
	n := 200
	a := tridiag(n)
	rng := rand.New(rand.NewSource(3))
	idx := rng.Perm(n)
	shuffle := make(Perm, n)
	for i, v := range idx {
		shuffle[i] = int32(v)
	}
	shuffled, err := shuffle.ApplySym(a)
	if err != nil {
		t.Fatal(err)
	}
	if shuffled.Bandwidth() < 50 {
		t.Skip("shuffle produced unusually small bandwidth")
	}
	p, err := RCM(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	restored, err := p.ApplySym(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if bw := restored.Bandwidth(); bw > 3 {
		t.Errorf("RCM bandwidth = %d, want <= 3 for a tridiagonal pattern", bw)
	}
}

func TestRCMDisconnectedComponents(t *testing.T) {
	// Two disjoint 3-cliques plus an isolated vertex.
	coo := sparse.NewCOO(7, 7, 30)
	for _, blk := range [][]int{{0, 1, 2}, {3, 4, 5}} {
		for _, i := range blk {
			for _, j := range blk {
				coo.Add(i, j, 1)
			}
		}
	}
	coo.Add(6, 6, 1)
	p, err := RCM(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("RCM on disconnected graph: %v", err)
	}
}

func TestABMCTridiagonal(t *testing.T) {
	n := 64
	a := tridiag(n)
	res, b, err := ABMCReorder(a, ABMCOptions{NumBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(b); err != nil {
		t.Fatal(err)
	}
	// A blocked tridiagonal chain is a path graph of blocks: 2 colors.
	if res.NumColors != 2 {
		t.Errorf("colors = %d, want 2", res.NumColors)
	}
	if res.NumBlocks() != 8 {
		t.Errorf("blocks = %d, want 8", res.NumBlocks())
	}
}

// Property: ABMC produces a valid ordering on random symmetric
// matrices for several block counts, and SpMV still commutes.
func TestABMCPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(80)
		a := randomSym(rng, n, 1+rng.Intn(3))
		nb := 1 + rng.Intn(16)
		res, b, err := ABMCReorder(a, ABMCOptions{NumBlocks: nb})
		if err != nil {
			return false
		}
		if res.Validate(b) != nil {
			return false
		}
		// Color spans tile the matrix.
		total := int32(0)
		for c := 0; c < res.NumColors; c++ {
			lo, hi := res.BlockPtr[res.ColorPtr[c]], res.BlockPtr[res.ColorPtr[c+1]]
			if lo > hi {
				return false
			}
			total += hi - lo
		}
		return int(total) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestABMCDefaultsAndEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSym(rng, 30, 2)
	// NumBlocks 0 -> default (clamped to n).
	res, b, err := ABMCReorder(a, ABMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBlocks() != 30 {
		t.Errorf("blocks = %d, want 30 (default clamped to n)", res.NumBlocks())
	}
	if err := res.Validate(b); err != nil {
		t.Error(err)
	}
	// One block: one color, identity-like.
	res1, b1, err := ABMCReorder(a, ABMCOptions{NumBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res1.NumColors != 1 {
		t.Errorf("single block used %d colors", res1.NumColors)
	}
	if !reflect.DeepEqual(b1, a) {
		t.Error("single-block ABMC should not permute")
	}
	// Rectangular matrix rejected.
	rect := &sparse.CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 0, 0}}
	if _, err := ABMC(rect, ABMCOptions{}); err == nil {
		t.Error("ABMC accepted rectangular matrix")
	}
}
