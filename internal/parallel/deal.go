package parallel

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Deal calls body(i) once for every i in [0, n) on min(GOMAXPROCS, n)
// goroutines, the caller among them, each taking the next index from one
// shared counter, so they finish together however unevenly the items
// cost. The goroutines live only for the call: Deal is for one-off
// passes that must not queue behind a Pool whose workers may be running
// another caller's job.
func Deal(n int, body func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			body(i)
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// DealChunk is the length of the ranges DealRanges deals: fixed, so
// which items share a range never depends on the worker count, and
// 64 Ki items — half a MiB of float64 — so a pass over a few MB is
// dozens of ranges that even out across cores, each far dearer than
// taking it.
const DealChunk = 1 << 16

// DealRanges is Deal over [0, n) cut into ranges of DealChunk items, the
// last one shorter: body(lo, hi) once per range.
func DealRanges(n int, body func(lo, hi int)) {
	Deal((n+DealChunk-1)/DealChunk, func(c int) {
		body(c*DealChunk, min(c*DealChunk+DealChunk, n))
	})
}

// DealRows is DealRanges over the entries of a CSR row pointer, handing
// out rows: body(lo, hi) gets the rows whose first slot ptr[i] lies in
// one range, so a row that straddles a range edge is dealt once, with
// the range it starts in. Rows past the last entry, all empty, are not
// dealt.
func DealRows(ptr []int64, body func(lo, hi int)) {
	n := len(ptr) - 1
	row := func(e int) int { return sort.Search(n, func(i int) bool { return ptr[i] >= int64(e) }) }
	DealRanges(int(ptr[n]), func(lo, hi int) {
		body(row(lo), row(hi))
	})
}
