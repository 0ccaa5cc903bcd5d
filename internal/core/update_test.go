package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fbmpk/internal/sparse"
)

// cloneWithValues returns a structurally identical matrix with fresh
// (deep-copied) index arrays and values transformed by f — deep copies
// so the structure comparison in UpdateValues is exercised elementwise,
// not short-circuited by slice aliasing.
func cloneWithValues(a *sparse.CSR, f func(i int, v float64) float64) *sparse.CSR {
	nv := make([]float64, len(a.Val))
	for i, v := range a.Val {
		nv[i] = f(i, v)
	}
	return &sparse.CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int64(nil), a.RowPtr...),
		ColIdx: append([]int32(nil), a.ColIdx...),
		Val:    nv,
	}
}

func bitwiseEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: diverges at [%d]: got %g want %g", label, i, got[i], want[i])
		}
	}
}

// TestUpdateValuesBitwise is the core mutable-matrix contract: after
// UpdateValues(a2) on a plan built from a1, every operation must return
// results bitwise-identical to a fresh plan built directly on a2 — for
// every engine/backend/reorder combination, including the reordered
// paths that gather values through the cached permutation slot map.
func TestUpdateValuesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a1 := randomSymCSR(rng, 300, 5)
	a2 := cloneWithValues(a1, func(i int, v float64) float64 { return 1.75*v + float64(i%7)*0.125 })

	cases := []struct {
		name string
		opt  Options
	}{
		{"fb-serial", DefaultOptions(0)},
		{"fb-parallel", DefaultOptions(4)},
		{"fb-serial-abmc", Options{Engine: EngineForwardBackward, BtB: true, ForceABMC: true}},
		{"standard-csr-abmc", Options{Engine: EngineStandard, Threads: 2, ForceABMC: true}},
		{"standard-sell", Options{Engine: EngineStandard, Backend: BackendSELL}},
		{"standard-bsr", Options{Engine: EngineStandard, Backend: BackendBSR}},
		{"levelblock", Options{Engine: EngineLevelBlocked, Threads: 2, LevelBlockBytes: 4 << 10}},
	}
	const k = 4
	x0 := randVec(rng, a1.Rows)
	coeffs := []float64{0.5, -1.0, 0.25, 2.0, -0.75}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPlan(a1, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			ref, err := NewPlan(a2, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()

			if got := p.Epoch(); got != 0 {
				t.Fatalf("fresh plan epoch = %d, want 0", got)
			}
			if err := p.UpdateValues(a2); err != nil {
				t.Fatalf("UpdateValues: %v", err)
			}
			if got := p.Epoch(); got != 1 {
				t.Fatalf("epoch after update = %d, want 1", got)
			}
			if st := p.Stats(); st.Updates != 1 || st.UpdateTime <= 0 {
				t.Fatalf("stats after update: Updates=%d UpdateTime=%v", st.Updates, st.UpdateTime)
			}

			got, err := p.MPK(x0, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.MPK(x0, k)
			if err != nil {
				t.Fatal(err)
			}
			bitwiseEqual(t, "MPK after update", got, want)

			got, err = p.SSpMV(coeffs, x0)
			if err != nil {
				t.Fatal(err)
			}
			want, err = ref.SSpMV(coeffs, x0)
			if err != nil {
				t.Fatal(err)
			}
			bitwiseEqual(t, "SSpMV after update", got, want)

			if tc.opt.Engine == EngineForwardBackward {
				gx, wx := make([]float64, a1.Rows), make([]float64, a1.Rows)
				if err := p.SymGS(x0, gx, 2); err != nil {
					t.Fatal(err)
				}
				if err := ref.SymGS(x0, wx, 2); err != nil {
					t.Fatal(err)
				}
				bitwiseEqual(t, "SymGS after update", gx, wx)
			}

			// Round-trip back to the original values: the cached slot map
			// is reused, and results must again match a never-updated plan.
			if err := p.UpdateValues(a1); err != nil {
				t.Fatalf("UpdateValues back: %v", err)
			}
			orig, err := NewPlan(a1, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer orig.Close()
			got, err = p.MPK(x0, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err = orig.MPK(x0, k)
			if err != nil {
				t.Fatal(err)
			}
			bitwiseEqual(t, "MPK after round-trip", got, want)
			if got := p.Epoch(); got != 2 {
				t.Fatalf("epoch after second update = %d, want 2", got)
			}
		})
	}
}

// TestUpdateValuesStructureDelta: any structural difference — changed
// dimension, shifted column index, different nnz — must be rejected
// with ErrStructureChanged, leaving the plan serving its current
// values.
func TestUpdateValuesStructureDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	a := randomSymCSR(rng, 120, 4)
	p, err := NewPlan(a, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x0 := randVec(rng, a.Rows)
	before, err := p.MPK(x0, 3)
	if err != nil {
		t.Fatal(err)
	}

	colShift := cloneWithValues(a, func(_ int, v float64) float64 { return v })
	// Move one off-diagonal entry to a column that keeps the row sorted
	// but differs from the original.
	for i := range colShift.ColIdx {
		lo, hi := int64(0), int64(0)
		for r := 0; r < colShift.Rows; r++ {
			lo, hi = colShift.RowPtr[r], colShift.RowPtr[r+1]
			if int64(i) >= lo && int64(i) < hi {
				break
			}
		}
		if int64(i) == lo && hi-lo > 1 && colShift.ColIdx[i] > 0 {
			colShift.ColIdx[i]--
			break
		}
	}
	diag := sparse.NewCOO(a.Rows, a.Cols, a.Rows).ToCSR()

	for _, tc := range []struct {
		name string
		b    *sparse.CSR
	}{
		{"column-shift", colShift},
		{"different-nnz", diag},
	} {
		if err := p.UpdateValues(tc.b); !errors.Is(err, ErrStructureChanged) {
			t.Fatalf("%s: err = %v, want ErrStructureChanged", tc.name, err)
		}
	}
	if got := p.Epoch(); got != 0 {
		t.Fatalf("epoch after rejected updates = %d, want 0", got)
	}
	after, err := p.MPK(x0, 3)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "MPK after rejected updates", after, before)
}

// TestUpdateValuesClosedPlan: updates after Close fail with ErrClosed.
func TestUpdateValuesClosedPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	a := randomSymCSR(rng, 60, 3)
	p, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := p.UpdateValues(cloneWithValues(a, func(_ int, v float64) float64 { return 2 * v })); !errors.Is(err, ErrClosed) {
		t.Fatalf("UpdateValues on closed plan: %v, want ErrClosed", err)
	}
}

// TestUpdateValuesDoesNotAliasCaller: the plan must copy the values at
// update time, so later caller writes to the source matrix cannot leak
// into an already-published epoch.
func TestUpdateValuesDoesNotAliasCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	a := randomSymCSR(rng, 80, 3)
	b := cloneWithValues(a, func(_ int, v float64) float64 { return v + 1 })
	p, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ref, err := NewPlan(cloneWithValues(b, func(_ int, v float64) float64 { return v }))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	if err := p.UpdateValues(b); err != nil {
		t.Fatal(err)
	}
	for i := range b.Val {
		b.Val[i] = -999 // scribble after the swap
	}
	x0 := randVec(rng, a.Rows)
	got, err := p.MPK(x0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MPK(x0, 3)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "MPK after caller scribble", got, want)
}

// TestEpochHoldsOneContainer is the storage invariant: whatever its
// options, a plan's epoch holds the one container its engine runs on —
// the backend (standard), the split (forward-backward), the
// level-ordered matrix (level-blocked) — and nothing else, before and
// after a value update. Backend is set to Auto throughout: only the
// standard engine may build one.
func TestEpochHoldsOneContainer(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	a := randomSymCSR(rng, 200, 4)
	b := cloneWithValues(a, func(_ int, v float64) float64 { return 3 * v })
	for _, eng := range []Engine{EngineStandard, EngineForwardBackward, EngineLevelBlocked, EngineAuto} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/t%d", eng, threads), func(t *testing.T) {
				p, err := NewPlan(a, Options{Engine: eng, BtB: true, Threads: threads, ForceABMC: true, Backend: BackendAuto})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				check := func(when string) {
					t.Helper()
					ep := p.state.Load()
					want := map[Engine][3]bool{
						EngineStandard:        {true, false, false},
						EngineForwardBackward: {false, true, false},
						EngineLevelBlocked:    {false, false, true},
					}[p.Engine()]
					if got := [3]bool{ep.be != nil, ep.tri != nil, ep.a != nil}; got != want {
						t.Fatalf("%s: %v plan holds (be, tri, a) = %v, want %v", when, p.Engine(), got, want)
					}
				}
				check("after NewPlan")
				if tuned := p.Stats().Tune != nil; tuned != (eng == EngineStandard) {
					t.Fatalf("backend tuner ran = %v on a %v plan", tuned, eng)
				}
				if err := p.UpdateValues(b); err != nil {
					t.Fatal(err)
				}
				check("after UpdateValues")
			})
		}
	}
}

// TestUpdateValuesFBAllocatesSplitOnly: a pooled (so ABMC-reordered)
// forward-backward plan deals an update's values straight into fresh
// L, D and U arrays through the slot map — no execution-order copy of
// the full value array in between. Counted in bytes: one update must
// allocate less than the split's value arrays plus half a full-matrix
// value array. (That the result is bitwise a fresh build is
// TestUpdateValuesBitwise/fb-parallel.)
func TestUpdateValuesFBAllocatesSplitOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	a := randomSymCSR(rng, 4000, 6)
	b := cloneWithValues(a, func(_ int, v float64) float64 { return v - 0.5 })
	p, err := NewPlan(a, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.UpdateValues(b); err != nil { // builds and caches the slot map
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := p.UpdateValues(a); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	tri := p.state.Load().tri
	split := 8 * uint64(len(tri.L.Val)+len(tri.U.Val)+len(tri.D))
	full := 8 * uint64(len(a.Val))
	if got := after.TotalAlloc - before.TotalAlloc; got >= split+full/2 {
		t.Fatalf("one update allocated %d bytes; the split's values are %d, a full value array %d more", got, split, full)
	}
}
