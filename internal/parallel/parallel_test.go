package parallel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPoolRunsAllWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers)
		if p.Workers() != workers {
			t.Fatalf("Workers = %d, want %d", p.Workers(), workers)
		}
		var mu sync.Mutex
		seen := map[int]int{}
		for rep := 0; rep < 3; rep++ {
			p.Run(func(id int) {
				mu.Lock()
				seen[id]++
				mu.Unlock()
			})
		}
		p.Close()
		p.Close() // idempotent
		if len(seen) != workers {
			t.Fatalf("saw %d distinct ids, want %d", len(seen), workers)
		}
		for id, n := range seen {
			if n != 3 {
				t.Errorf("worker %d ran %d times, want 3", id, n)
			}
		}
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Errorf("default workers = %d", p.Workers())
	}
}

func TestPoolFor(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	n := 1000
	out := make([]int64, n)
	p.ForRanges(0, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = int64(i * i)
		}
	})
	for i := range out {
		if out[i] != int64(i*i) {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
	// Empty and negative ranges are no-ops.
	p.ForRanges(5, 5, func(_, _, _ int) { t.Error("body called on empty range") })
	p.ForRanges(5, 3, func(_, _, _ int) { t.Error("body called on negative range") })
}

func TestPoolForRangesCoversExactly(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	n := 100
	var covered int64
	hits := make([]int32, n)
	p.ForRanges(0, n, func(id, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
		atomic.AddInt64(&covered, int64(hi-lo))
	})
	if covered != int64(n) {
		t.Fatalf("covered %d, want %d", covered, n)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("row %d hit %d times", i, h)
		}
	}
}

func TestBarrierPhases(t *testing.T) {
	const parties = 4
	const phases = 50
	b := NewBarrier(parties)
	p := NewPool(parties)
	defer p.Close()
	var phase int64
	errs := make(chan string, parties*phases)
	p.Run(func(id int) {
		for ph := 0; ph < phases; ph++ {
			// Everyone must observe the same phase value between
			// barrier crossings.
			if got := atomic.LoadInt64(&phase); got != int64(ph) {
				errs <- "phase skew before barrier"
			}
			b.Wait()
			if id == 0 {
				atomic.AddInt64(&phase, 1)
			}
			b.Wait()
		}
	})
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if phase != phases {
		t.Fatalf("phase = %d, want %d", phase, phases)
	}
}

func TestBarrierSingleParty(t *testing.T) {
	b := NewBarrier(1)
	for i := 0; i < 10; i++ {
		b.Wait() // must not block
	}
}

func TestBarrierPanicsOnZeroParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(0)
}

func TestPartitionRowsBalanced(t *testing.T) {
	// Skewed weights: row i has weight i. The heaviest part should not
	// exceed the ideal share by more than the max single weight.
	n, parts := 1000, 7
	w := func(i int) int64 { return int64(i) }
	bounds := PartitionRows(n, parts, w)
	if bounds[0] != 0 || bounds[parts] != n {
		t.Fatalf("bounds endpoints %v", bounds)
	}
	var total int64
	for i := 0; i < n; i++ {
		total += w(i)
	}
	ideal := total / int64(parts)
	for p := 0; p < parts; p++ {
		if bounds[p] > bounds[p+1] {
			t.Fatalf("bounds not monotone: %v", bounds)
		}
		var s int64
		for i := bounds[p]; i < bounds[p+1]; i++ {
			s += w(i)
		}
		if s > ideal+int64(n) {
			t.Errorf("part %d weight %d exceeds ideal %d + maxrow", p, s, ideal)
		}
	}
}

func TestPartitionRowsEdgeCases(t *testing.T) {
	// Zero weight: even split by count.
	b := PartitionRows(10, 2, func(int) int64 { return 0 })
	if b[1] != 5 {
		t.Errorf("zero-weight split = %v", b)
	}
	// Empty input.
	b = PartitionRows(0, 3, func(int) int64 { return 1 })
	for _, v := range b {
		if v != 0 {
			t.Errorf("empty split = %v", b)
		}
	}
	// parts < 1 clamps to 1.
	b = PartitionRows(5, 0, func(int) int64 { return 1 })
	if len(b) != 2 || b[1] != 5 {
		t.Errorf("clamped split = %v", b)
	}
	// More parts than rows: trailing parts empty but valid.
	b = PartitionRows(3, 8, func(int) int64 { return 1 })
	if b[8] != 3 {
		t.Errorf("overpartition = %v", b)
	}
	for p := 0; p < 8; p++ {
		if b[p] > b[p+1] {
			t.Fatalf("overpartition not monotone: %v", b)
		}
	}
}

// Property: every partition is a monotone cover of [0, n).
func TestPartitionRowsPropertyQuick(t *testing.T) {
	f := func(nRaw, partsRaw uint8, seed int64) bool {
		n := int(nRaw)
		parts := 1 + int(partsRaw)%16
		w := func(i int) int64 { return int64((uint64(i)*2654435761 + uint64(seed)) % 97) }
		b := PartitionRows(n, parts, w)
		if len(b) != parts+1 || b[0] != 0 || b[parts] != n {
			return false
		}
		for p := 0; p < parts; p++ {
			if b[p] > b[p+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPartitionByPtrAndBlocks(t *testing.T) {
	ptr := []int64{0, 10, 10, 30, 31}
	b := PartitionByPtr(4, 2, ptr)
	if b[0] != 0 || b[2] != 4 {
		t.Fatalf("bounds = %v", b)
	}
	// Block partition over blocks 1..4 of a blockPtr.
	blockPtr := []int32{0, 4, 8, 20, 24, 30}
	bb := PartitionBlocks(1, 5, 2, blockPtr)
	if bb[0] != 1 || bb[2] != 5 {
		t.Fatalf("block bounds = %v", bb)
	}
	if bb[1] < 1 || bb[1] > 5 {
		t.Fatalf("interior bound out of range: %v", bb)
	}
}

// TestDeal: Deal calls body once per index and DealRanges covers [0, n)
// with its fixed ranges exactly once, at any GOMAXPROCS.
func TestDeal(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 5, 2*DealChunk + 3} {
			seen := make([]atomic.Int32, n)
			Deal(n, func(i int) { seen[i].Add(1) })
			DealRanges(n, func(lo, hi int) {
				if lo%DealChunk != 0 || hi != min(lo+DealChunk, n) {
					t.Errorf("procs=%d n=%d: range [%d, %d)", procs, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if c := seen[i].Load(); c != 2 {
					t.Fatalf("procs=%d n=%d: index %d dealt %d times, want once by each", procs, n, i, c)
				}
			}
		}
	}
}

// TestDealRows: DealRows hands out every row that starts before the
// last entry exactly once, with the range its first slot lies in —
// empty rows, rows that straddle a range edge and a row longer than two
// ranges included — and leaves out the empty rows after the last entry.
func TestDealRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(3))
	ptr := []int64{0}
	for i := 0; i < 5000; i++ {
		l := int64(rng.Intn(3) * rng.Intn(100))
		if i == 2500 {
			l = 2*DealChunk + 7
		}
		ptr = append(ptr, ptr[i]+l)
	}
	nnz := ptr[len(ptr)-1]
	ptr = append(ptr, nnz, nnz) // two empty rows after the last entry
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		seen := make([]atomic.Int32, len(ptr)-1)
		DealRows(ptr, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if ptr[i]/DealChunk != ptr[lo]/DealChunk {
					t.Errorf("procs=%d: rows %d and %d start in different ranges", procs, lo, i)
				}
				seen[i].Add(1)
			}
		})
		for i := range seen {
			want := int32(0)
			if ptr[i] < nnz {
				want = 1
			}
			if c := seen[i].Load(); c != want {
				t.Fatalf("procs=%d: row %d (first slot %d of %d) dealt %d times, want %d", procs, i, ptr[i], nnz, c, want)
			}
		}
	}
}
