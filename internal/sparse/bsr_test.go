package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// blockedMatrix builds a matrix with dense dof x dof blocks, BSR's
// natural input shape.
func blockedMatrix(rng *rand.Rand, nodes, dof, nbrPerNode int) *CSR {
	n := nodes * dof
	coo := NewCOO(n, n, nodes*(nbrPerNode+1)*dof*dof)
	addBlock := func(bi, bj int) {
		for r := 0; r < dof; r++ {
			for c := 0; c < dof; c++ {
				coo.Add(bi*dof+r, bj*dof+c, rng.NormFloat64())
			}
		}
	}
	for b := 0; b < nodes; b++ {
		addBlock(b, b)
		for k := 0; k < nbrPerNode; k++ {
			addBlock(b, rng.Intn(nodes))
		}
	}
	return coo.ToCSR()
}

func TestBSRMatchesCSROnBlockedMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, dof := range []int{1, 2, 3} {
		for trial := 0; trial < 5; trial++ {
			nodes := 4 + rng.Intn(30)
			a := blockedMatrix(rng, nodes, dof, 1+rng.Intn(3))
			b := ToBSR(a, dof, dof)
			if fill := float64(len(b.Val)) / float64(a.NNZ()); fill > 1.0001 {
				t.Errorf("dof=%d: fill ratio %g on perfectly blocked matrix", dof, fill)
			}
			x := randVec(rng, a.Cols)
			want := make([]float64, a.Rows)
			got := make([]float64, a.Rows)
			SpMV(a, x, want)
			b.SpMV(x, got)
			if d := MaxAbsDiff(got, want); d > 1e-12 {
				t.Fatalf("dof=%d trial=%d: BSR SpMV differs by %g", dof, trial, d)
			}
		}
	}
}

// Property: BSR with any block shape (including non-divisible edges)
// reproduces CSR SpMV.
func TestBSRQuickProperty(t *testing.T) {
	f := func(seed int64, rRaw, cRaw uint8) bool {
		r := 1 + int(rRaw)%4
		c := 1 + int(cRaw)%4
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		a := randomCSR(rng, n, rng.Intn(5))
		b := ToBSR(a, r, c)
		x := randVec(rng, n)
		want := make([]float64, n)
		got := make([]float64, n)
		SpMV(a, x, want)
		b.SpMV(x, got)
		return MaxAbsDiff(got, want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBSRBlockColumnOrderSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := randomCSR(rng, 40, 4)
	b := ToBSR(a, 3, 3)
	for br := 0; br < b.BRows; br++ {
		prev := int32(-1)
		for k := b.RowPtr[br]; k < b.RowPtr[br+1]; k++ {
			if b.ColIdx[k] <= prev {
				t.Fatalf("block row %d: columns not strictly ascending", br)
			}
			prev = b.ColIdx[k]
		}
	}
	if len(b.ColIdx) <= 0 || b.MemoryBytes() <= 0 {
		t.Error("accounting not positive")
	}
}

func TestBSRPanicsOnBadBlocks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ToBSR accepted zero block dim")
		}
	}()
	ToBSR(paperExample(), 0, 2)
}
