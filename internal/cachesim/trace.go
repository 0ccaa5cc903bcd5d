package cachesim

import (
	"fbmpk/internal/sparse"
)

// Trace generators replay the exact memory reference streams of the
// MPK kernels against a simulated cache. Array layouts mirror the real
// implementations: CSR arrays are contiguous, vectors are dense, and
// the BtB layout interleaves the two live iterates in one region.

const pageAlign = 4096

// layout hands out non-overlapping virtual address regions.
type layout struct{ next uint64 }

func (l *layout) alloc(bytes int64) uint64 {
	base := l.next
	l.next += (uint64(bytes) + pageAlign - 1) &^ (pageAlign - 1)
	return base
}

// csrRegion holds the base addresses of one CSR matrix's arrays.
type csrRegion struct {
	rowPtr, colIdx, val uint64
}

func placeCSR(l *layout, m *sparse.CSR) csrRegion {
	return csrRegion{
		rowPtr: l.alloc(int64(len(m.RowPtr)) * 8),
		colIdx: l.alloc(int64(len(m.ColIdx)) * 4),
		val:    l.alloc(int64(len(m.Val)) * 8),
	}
}

// traceSpMVRows replays y[lo:hi] = A*x for a CSR matrix at region r,
// reading x through the provided address function (which lets the BtB
// layout express strided vector elements).
func traceSpMVRows(c *Cache, a *sparse.CSR, r csrRegion, xAddr func(i int32) uint64, yAddr func(i int) uint64, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.Read(r.rowPtr+uint64(i)*8, 8) // row_ptr[i]; [i+1] hits the same or next line
		for j := a.RowPtr[i]; j < a.RowPtr[i+1]; j++ {
			c.Read(r.colIdx+uint64(j)*4, 4)
			c.Read(r.val+uint64(j)*8, 8)
			c.Read(xAddr(a.ColIdx[j]), 8)
		}
		c.Write(yAddr(i), 8)
	}
}

// TraceStandardMPK replays Algorithm 1: k full SpMV sweeps with
// ping-pong vectors. It flushes at the end so resident dirty output
// counts as DRAM writes.
func TraceStandardMPK(c *Cache, a *sparse.CSR, k int) {
	var l layout
	r := placeCSR(&l, a)
	x := l.alloc(int64(a.Rows) * 8)
	y := l.alloc(int64(a.Rows) * 8)
	for p := 0; p < k; p++ {
		traceSpMVRows(c, a, r,
			func(i int32) uint64 { return x + uint64(i)*8 },
			func(i int) uint64 { return y + uint64(i)*8 },
			0, a.Rows)
		x, y = y, x
	}
	c.Flush()
}

// TraceFBMPK replays the forward-backward pipeline on a split matrix.
// btb selects the interleaved vector layout.
func TraceFBMPK(c *Cache, tri *sparse.Triangular, k int, btb bool) {
	var l layout
	rL := placeCSR(&l, tri.L)
	rU := placeCSR(&l, tri.U)
	d := l.alloc(int64(tri.N) * 8)
	tmp := l.alloc(int64(tri.N) * 8)

	var evenAddr, oddAddr func(i int32) uint64
	if btb {
		xy := l.alloc(int64(tri.N) * 16)
		evenAddr = func(i int32) uint64 { return xy + uint64(i)*16 }
		oddAddr = func(i int32) uint64 { return xy + uint64(i)*16 + 8 }
	} else {
		a := l.alloc(int64(tri.N) * 8)
		b := l.alloc(int64(tri.N) * 8)
		evenAddr = func(i int32) uint64 { return a + uint64(i)*8 }
		oddAddr = func(i int32) uint64 { return b + uint64(i)*8 }
	}

	n := tri.N
	// Head: tmp = U * x0 (x0 in the even slots).
	traceSpMVRows(c, tri.U, rU, evenAddr,
		func(i int) uint64 { return tmp + uint64(i)*8 }, 0, n)

	t := 0
	for t < k {
		last := t+1 == k
		// Forward sweep over L.
		for i := 0; i < n; i++ {
			c.Read(tmp+uint64(i)*8, 8)
			c.Read(d+uint64(i)*8, 8)
			c.Read(evenAddr(int32(i)), 8)
			c.Read(rL.rowPtr+uint64(i)*8, 8)
			for j := tri.L.RowPtr[i]; j < tri.L.RowPtr[i+1]; j++ {
				c.Read(rL.colIdx+uint64(j)*4, 4)
				c.Read(rL.val+uint64(j)*8, 8)
				col := tri.L.ColIdx[j]
				c.Read(evenAddr(col), 8)
				if !last {
					c.Read(oddAddr(col), 8)
				}
			}
			c.Write(oddAddr(int32(i)), 8)
			if !last {
				c.Write(tmp+uint64(i)*8, 8)
			}
		}
		t++
		if t == k {
			break
		}
		last = t+1 == k
		// Backward sweep over U: rows and each row's entries both
		// downward, the kernel's order (core.fbBackward1).
		for i := n - 1; i >= 0; i-- {
			c.Read(tmp+uint64(i)*8, 8)
			c.Read(rU.rowPtr+uint64(i)*8, 8)
			for j := tri.U.RowPtr[i+1] - 1; j >= tri.U.RowPtr[i]; j-- {
				c.Read(rU.colIdx+uint64(j)*4, 4)
				c.Read(rU.val+uint64(j)*8, 8)
				col := tri.U.ColIdx[j]
				c.Read(oddAddr(col), 8)
				if !last {
					c.Read(evenAddr(col), 8)
				}
			}
			c.Write(evenAddr(int32(i)), 8)
			if !last {
				c.Write(tmp+uint64(i)*8, 8)
			}
		}
		t++
	}
	c.Flush()
}

// LevelBlockSchedule is the level-blocked engine's schedule on the
// level-permuted matrix: LevelPtr delimits the (contiguous) permuted
// row range of each BFS level, BlockPtr groups consecutive levels into
// cache-budget blocks in the core.GroupLevels layout (block b covers
// levels [BlockPtr[b], BlockPtr[b+1]), BlockPtr[len-1] = NumLevels).
type LevelBlockSchedule struct {
	LevelPtr []int32
	BlockPtr []int32
}

// TraceLevelBlockedMPK replays the skewed level-blocked MPK schedule
// (core.levelBlockedPowers) against the level-permuted matrix a: one pass
// per block plus an epilogue pass, each pass running powers p = 1..k
// over the block's level window shifted down by p-1 and clamped. All
// k+1 iterate vectors are live, but each pass's working set is one
// block plus its skew tail, so with a block budget of half the cache
// the matrix ideally crosses the bus about once for the whole k-power
// sequence — the LB-MPK effect the engine autotuner models.
func TraceLevelBlockedMPK(c *Cache, a *sparse.CSR, s LevelBlockSchedule, k int) {
	var l layout
	r := placeCSR(&l, a)
	xs := make([]uint64, k+1)
	for p := range xs {
		xs[p] = l.alloc(int64(a.Rows) * 8)
	}
	nl := len(s.LevelPtr) - 1
	nb := len(s.BlockPtr) - 1
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v > nl {
			return nl
		}
		return v
	}
	for b := 0; b <= nb; b++ {
		bLo := int(s.BlockPtr[b])
		bHi := nl + k - 1 // epilogue pass drains the skewed tail
		if b < nb {
			bHi = int(s.BlockPtr[b+1])
		}
		for p := 1; p <= k; p++ {
			lo := clamp(bLo - (p - 1))
			hi := clamp(bHi - (p - 1))
			if lo >= hi {
				continue
			}
			src, dst := xs[p-1], xs[p]
			traceSpMVRows(c, a, r,
				func(i int32) uint64 { return src + uint64(i)*8 },
				func(i int) uint64 { return dst + uint64(i)*8 },
				int(s.LevelPtr[lo]), int(s.LevelPtr[hi]))
		}
	}
	c.Flush()
}

// CompareMPK runs both pipelines on fresh caches of the same
// configuration and returns their stats: the Fig 9 experiment for one
// matrix and power.
func CompareMPK(cfg Config, a *sparse.CSR, tri *sparse.Triangular, k int, btb bool) (std, fb Stats, err error) {
	cs, err := New(cfg)
	if err != nil {
		return Stats{}, Stats{}, err
	}
	TraceStandardMPK(cs, a, k)
	cf, err := New(cfg)
	if err != nil {
		return Stats{}, Stats{}, err
	}
	TraceFBMPK(cf, tri, k, btb)
	return cs.Stats(), cf.Stats(), nil
}
