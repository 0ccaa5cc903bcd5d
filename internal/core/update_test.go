package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
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
// every engine and order, including the reordered paths that gather
// values through the cached permutation slot map. The -abmc cases build
// both plans on the matrices in ABMC order.
func TestUpdateValuesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a1 := randomSymCSR(rng, 300, 5)
	a2 := cloneWithValues(a1, func(i int, v float64) float64 { return 1.75*v + float64(i%7)*0.125 })
	ord, b1, err := reorder.ABMCReorder(a1, reorder.ABMCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ord.Perm.ApplySym(a2)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		opt  Options
		abmc bool
	}{
		{"fb-serial", DefaultOptions(0), false},
		{"fb-parallel", DefaultOptions(4), false},
		{"fb-serial-abmc", Options{Engine: EngineForwardBackward, BtB: true}, true},
		{"standard-csr-abmc", Options{Engine: EngineStandard, Threads: 2}, true},
		// standard-sell and standard-bsr keep the names they had while
		// SELL and BSR were plan backends; they now spell the standard
		// plan on the caller's order, serial and on two workers.
		{"standard-sell", Options{Engine: EngineStandard}, false},
		{"standard-bsr", Options{Engine: EngineStandard, Threads: 2}, false},
		{"levelblock", Options{Engine: EngineLevelBlocked, Threads: 2, LevelBlockBytes: 4 << 10}, false},
	}
	const k = 4
	x0 := randVec(rng, a1.Rows)
	coeffs := []float64{0.5, -1.0, 0.25, 2.0, -0.75}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a1, a2 := a1, a2
			if tc.abmc {
				a1, a2 = b1, b2
			}
			bd, ref := newBed(t, a1), newBed(t, a2)
			p := bd.plan(tc.opt)
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
			opts := []Options{tc.opt}
			bd.check(run{opts: opts, ks: []int{k}, oracle: fresh, of: ref}, x0)
			bd.check(run{e: entrySSpMV, opts: opts, coeffs: coeffs, oracle: fresh, of: ref}, x0)
			if tc.opt.Engine == EngineForwardBackward {
				gx, wx := make([]float64, a1.Rows), make([]float64, a1.Rows)
				if err := p.SymGS(x0, gx, 2); err != nil {
					t.Fatal(err)
				}
				if err := ref.plan(tc.opt).SymGS(x0, wx, 2); err != nil {
					t.Fatal(err)
				}
				bitwiseEqual(t, "SymGS after update", gx, wx)
			}

			// Round-trip back to the original values: the cached slot map
			// is reused, and results must again match a never-updated plan.
			if err := p.UpdateValues(a1); err != nil {
				t.Fatalf("UpdateValues back: %v", err)
			}
			bd.check(run{opts: opts, ks: []int{k}, oracle: fresh, of: newBed(t, a1)}, x0)
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
	bd := newBed(t, randomSymCSR(rng, 80, 3))
	b := cloneWithValues(bd.a, func(_ int, v float64) float64 { return v + 1 })
	ref := newBed(t, cloneWithValues(b, func(_ int, v float64) float64 { return v }))
	if err := bd.plan(DefaultOptions(0)).UpdateValues(b); err != nil {
		t.Fatal(err)
	}
	for i := range b.Val {
		b.Val[i] = -999 // scribble after the swap
	}
	bd.check(run{opts: []Options{DefaultOptions(0)}, ks: []int{3}, oracle: fresh, of: ref}, randVec(rng, bd.a.Rows))
}

// TestEpochHoldsOneContainer is the storage invariant: whatever its
// options, a plan's epoch holds the one container its engine runs on —
// the split (forward-backward), the matrix in execution order (standard
// and level-blocked) — and nothing else, before and after a value
// update.
func TestEpochHoldsOneContainer(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	a := randomSymCSR(rng, 200, 4)
	b := cloneWithValues(a, func(_ int, v float64) float64 { return 3 * v })
	for _, eng := range []Engine{EngineStandard, EngineForwardBackward, EngineLevelBlocked, EngineAuto} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/t%d", eng, threads), func(t *testing.T) {
				p, err := NewPlan(a, Options{Engine: eng, BtB: true, Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				check := func(when string) {
					t.Helper()
					ep := p.state.Load()
					want := map[Engine][2]bool{
						EngineStandard:        {false, true},
						EngineForwardBackward: {true, false},
						EngineLevelBlocked:    {false, true},
					}[p.Engine()]
					if got := [2]bool{ep.tri != nil, ep.a != nil}; got != want {
						t.Fatalf("%s: %v plan holds (tri, a) = %v, want %v", when, p.Engine(), got, want)
					}
				}
				check("after NewPlan")
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

// TestGatherValues: the execution-order gather of the standard and
// level-blocked engines is the serial loop's array at 1, 2 and 3
// workers — through a slot map and without one — on arrays of 0, 1 and
// several dealt ranges, and never aliases the caller's values.
func TestGatherValues(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(89))
	for _, m := range []int{0, 1, 3*parallel.DealChunk + 17} {
		src := randVec(rng, m)
		slot := make([]int64, m)
		for j, p := range rng.Perm(m) {
			slot[j] = int64(p)
		}
		want := make([]float64, m)
		for j, from := range slot {
			want[j] = src[from]
		}
		for _, procs := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(procs)
			bitwiseEqual(t, fmt.Sprintf("m=%d procs=%d slot map", m, procs), gatherValues(src, slot), want)
			got := gatherValues(src, nil)
			bitwiseEqual(t, fmt.Sprintf("m=%d procs=%d identity", m, procs), got, src)
			if m > 0 && &got[0] == &src[0] {
				t.Fatalf("m=%d: identity gather aliases the caller's values", m)
			}
		}
	}
}

// TestUpdateValuesStructureDeltaNamesFirst: the structure proof compares
// whole arrays as bytes, yet a rejected update names the first row
// pointer, else the first column index, that differs — with the text
// the elementwise scan wrote — wherever the deltas sit.
func TestUpdateValuesStructureDeltaNamesFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	a := randomSymCSR(rng, 400, 3)
	p, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	n, nnz := a.Rows, len(a.ColIdx)
	// moveRow shifts the boundary between rows i-1 and i by one entry;
	// moveCol lowers the first column of the row holding slot k, keeping
	// it sorted. Each changes one array only.
	moveRow := func(b *sparse.CSR, i int) {
		for ; b.RowPtr[i]+1 >= b.RowPtr[i+1]; i++ {
		}
		b.RowPtr[i]++
	}
	moveCol := func(b *sparse.CSR, k int) {
		r := sort.Search(n, func(r int) bool { return b.RowPtr[r+1] > int64(k) })
		for ; b.ColIdx[b.RowPtr[r]] == 0; r++ {
		}
		b.ColIdx[b.RowPtr[r]]--
	}
	for _, tc := range []struct {
		name string
		edit func(b *sparse.CSR)
	}{
		{"rowptr-first", func(b *sparse.CSR) { moveRow(b, 3) }},
		{"rowptr-last", func(b *sparse.CSR) { moveRow(b, n-10) }},
		{"rowptr-first-and-last", func(b *sparse.CSR) { moveRow(b, n-10); moveRow(b, 7) }},
		{"colidx-first", func(b *sparse.CSR) { moveCol(b, 10) }},
		{"colidx-last", func(b *sparse.CSR) { moveCol(b, nnz-20) }},
		{"colidx-first-and-last", func(b *sparse.CSR) { moveCol(b, nnz-20); moveCol(b, 9) }},
		{"both-arrays", func(b *sparse.CSR) { moveCol(b, 10); moveRow(b, n-10) }},
		// The proof compares, it does not validate: a bare edit on the
		// first or last entry of an array must be named too.
		{"rowptr-start", func(b *sparse.CSR) { b.RowPtr[0]++ }},
		{"rowptr-end", func(b *sparse.CSR) { b.RowPtr[n]++ }},
		{"colidx-start", func(b *sparse.CSR) { b.ColIdx[0]++ }},
		{"colidx-end", func(b *sparse.CSR) { b.ColIdx[nnz-1]++ }},
	} {
		b := cloneWithValues(a, func(_ int, v float64) float64 { return v })
		tc.edit(b)
		var want string // the elementwise scan's error
		for i := range a.RowPtr {
			if want == "" && a.RowPtr[i] != b.RowPtr[i] {
				want = fmt.Sprintf("core: UpdateValues: row pointer delta at row %d: %v", i, ErrStructureChanged)
			}
		}
		for i := range a.ColIdx {
			if want == "" && a.ColIdx[i] != b.ColIdx[i] {
				want = fmt.Sprintf("core: UpdateValues: column index delta at slot %d: %v", i, ErrStructureChanged)
			}
		}
		if err := p.UpdateValues(b); err == nil || err.Error() != want || !errors.Is(err, ErrStructureChanged) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, want)
		}
	}
	if got := p.Epoch(); got != 0 {
		t.Fatalf("epoch after rejected updates = %d, want 0", got)
	}
}

// TestUpdateValuesCanceledWhileWaiting: an update whose context is
// canceled while it waits for the update lock returns the context's
// error once it gets the lock, and leaves the epoch and the values as
// they were.
func TestUpdateValuesCanceledWhileWaiting(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	a := randomSymCSR(rng, 200, 4)
	p, err := NewPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x0 := randVec(rng, a.Rows)
	before, err := p.MPK(x0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.updateMu.Lock()
	done := make(chan error)
	go func() {
		done <- p.UpdateValuesCtx(ctx, cloneWithValues(a, func(_ int, v float64) float64 { return 2 * v }))
	}()
	waitForLockWaiter(t, "(*Plan).UpdateValuesCtx")
	cancel()
	p.updateMu.Unlock()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("update canceled while waiting: err = %v, want context.Canceled", err)
	}
	if got := p.Epoch(); got != 0 {
		t.Fatalf("epoch after canceled update = %d, want 0", got)
	}
	after, err := p.MPK(x0, 3)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "MPK after canceled update", after, before)
}

// waitForLockWaiter returns once some goroutine is blocked taking a
// mutex inside the function fn names.
func waitForLockWaiter(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "Mutex).Lock") && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine blocked on a mutex in %s", fn)
}
