// Package graph provides the block-graph construction and greedy
// distance-1 coloring behind the ABMC reordering (Section III-D).
// The paper uses the ColPack library for coloring; a greedy sequential
// coloring with optional largest-degree-first ordering is the same
// algorithm class ColPack applies for distance-1 problems and produces
// colorings of comparable quality on the block graphs ABMC builds.
package graph

import (
	"fmt"
	"slices"
	"sort"

	"fbmpk/internal/sparse"
)

// Adj is an undirected adjacency structure in CSR-like form:
// neighbors of vertex v are Nbr[Ptr[v]:Ptr[v+1]], sorted ascending,
// with no self-loops and no duplicates.
type Adj struct {
	N   int
	Ptr []int64
	Nbr []int32
}

// Degree returns the degree of vertex v.
func (g *Adj) Degree(v int) int { return int(g.Ptr[v+1] - g.Ptr[v]) }

// Neighbors returns the (aliased) neighbor slice of vertex v.
func (g *Adj) Neighbors(v int) []int32 { return g.Nbr[g.Ptr[v]:g.Ptr[v+1]] }

// BlockGraphPool builds the quotient graph over row blocks: vertices are
// blocks (block b covers rows blockPtr[b]..blockPtr[b+1]), and two
// blocks are adjacent when the matrix has any entry (i, j) with i and
// j in different blocks. The symmetrized pattern of A is used, so the
// coloring is valid for both the forward (L) and backward (U) sweeps.
//
// The O(nnz) discovery pass is block-parallelized over r (nil =
// serial). The construction is two
// passes over array structures (no hash map): first each block scans
// its own rows and collects its sorted distinct out-neighbor blocks —
// blocks partition rows contiguously, so workers touch disjoint
// state — then the out-lists are symmetrized by a cheap O(edges)
// reversal and per-block sorted merges (again block-parallel). The
// resulting adjacency (sorted, deduplicated) is identical for every
// worker count, which keeps the downstream greedy coloring — and
// therefore the whole ABMC ordering — deterministic.
func BlockGraphPool(a *sparse.CSR, blockPtr []int32, r sparse.Runner) (*Adj, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("graph: BlockGraphPool: %dx%d matrix: %w", a.Rows, a.Cols, sparse.ErrNotSquare)
	}
	nb := len(blockPtr) - 1
	if nb < 0 || blockPtr[0] != 0 || int(blockPtr[nb]) != a.Rows {
		return nil, fmt.Errorf("graph: bad block pointer (nb=%d)", nb)
	}
	for b := 0; b < nb; b++ {
		if blockPtr[b] > blockPtr[b+1] {
			return nil, fmt.Errorf("graph: block pointer not monotone at %d", b)
		}
	}
	// rowBlock[i] = block containing row i, filled block-parallel
	// (each block owns a contiguous row range).
	rowBlock := make([]int32, a.Rows)
	sparse.ForRanges(r, 0, nb, func(_, start, end int) {
		for b := start; b < end; b++ {
			for i := blockPtr[b]; i < blockPtr[b+1]; i++ {
				rowBlock[i] = int32(b)
			}
		}
	})

	// Pass 1: per-block distinct out-neighbors, deduplicated with a
	// per-worker stamp array (seen[bj] holds the id of the last block
	// that recorded bj, so no clearing between blocks).
	outs := make([][]int32, nb)
	sparse.ForRanges(r, 0, nb, func(_, start, end int) {
		seen := make([]int32, nb) // seen[bj] == b+1 marks bj recorded for block b
		for b := start; b < end; b++ {
			stamp := int32(b + 1)
			var list []int32
			for i := blockPtr[b]; i < blockPtr[b+1]; i++ {
				cols, _ := a.Row(int(i))
				for _, c := range cols {
					bj := rowBlock[c]
					if bj != int32(b) && seen[bj] != stamp {
						seen[bj] = stamp
						list = append(list, bj)
					}
				}
			}
			slices.Sort(list)
			outs[b] = list
		}
	})

	// Reversal: ins[bj] collects every b with bj in outs[b]. Iterating
	// b ascending appends in increasing order, so the in-lists come out
	// sorted with no extra sort. O(block edges), serial — the edge count
	// is bounded by nb * degree, far below nnz.
	insCnt := make([]int32, nb)
	for b := 0; b < nb; b++ {
		for _, bj := range outs[b] {
			insCnt[bj]++
		}
	}
	ins := make([][]int32, nb)
	for b := 0; b < nb; b++ {
		ins[b] = make([]int32, 0, insCnt[b])
	}
	for b := 0; b < nb; b++ {
		for _, bj := range outs[b] {
			ins[bj] = append(ins[bj], int32(b))
		}
	}

	// Pass 2: per-block sorted merge of out- and in-lists (the
	// symmetrized adjacency), then assembly into the CSR-like Adj.
	merged := make([][]int32, nb)
	sparse.ForRanges(r, 0, nb, func(_, start, end int) {
		for b := start; b < end; b++ {
			merged[b] = appendUnion(make([]int32, 0, len(outs[b])+len(ins[b])), outs[b], ins[b], int32(b))
		}
	})
	g := &Adj{N: nb, Ptr: make([]int64, nb+1)}
	for b := 0; b < nb; b++ {
		g.Ptr[b+1] = g.Ptr[b] + int64(len(merged[b]))
	}
	g.Nbr = make([]int32, g.Ptr[nb])
	sparse.ForRanges(r, 0, nb, func(_, start, end int) {
		for b := start; b < end; b++ {
			copy(g.Nbr[g.Ptr[b]:g.Ptr[b+1]], merged[b])
		}
	})
	return g, nil
}

// appendUnion appends to dst the sorted union of two ascending slices,
// duplicates and the value skip (the vertex itself: no self-loops)
// dropped.
func appendUnion(dst, x, y []int32, skip int32) []int32 {
	p, q := 0, 0
	for p < len(x) || q < len(y) {
		var v int32
		switch {
		case q >= len(y) || (p < len(x) && x[p] < y[q]):
			v = x[p]
			p++
		case p >= len(x) || y[q] < x[p]:
			v = y[q]
			q++
		default:
			v = x[p]
			p++
			q++
		}
		if v != skip {
			dst = append(dst, v)
		}
	}
	return dst
}

// FromCSRPattern builds the row-level adjacency of a square matrix's
// symmetrized pattern (BFS levels, RCM). Self-loops are dropped. One
// merge of each row of a with the same row of the pattern-only
// transpose; the neighbor array starts at nnz(a), which is exact for a
// structurally symmetric matrix with a full diagonal, and grows
// otherwise. Both passes run over r's workers (nil = serial), each on a
// contiguous chunk of rows of about equal nonzeros. A chunk merges into
// the stretch of the neighbor array its own entries span, which holds
// its neighbors unless the pattern is not symmetric (append then moves
// them to a buffer of their own), and the chunks are then moved down
// behind one another. The adjacency is the same for any worker count,
// and one worker is the serial path and its allocation.
func FromCSRPattern(a *sparse.CSR, r sparse.Runner) (*Adj, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("graph: FromCSRPattern: %dx%d matrix: %w", a.Rows, a.Cols, sparse.ErrNotSquare)
	}
	n := a.Rows
	chunks := rowChunks(a, r)
	tPtr, tIdx := transposePattern(a, chunks, r)
	g := &Adj{N: n, Ptr: make([]int64, n+1), Nbr: make([]int32, 0, a.NNZ())}
	nbrs := make([][]int32, len(chunks)-1)
	sparse.ForRanges(r, 0, len(nbrs), func(_, start, end int) {
		for w := start; w < end; w++ {
			lo, hi := chunks[w], chunks[w+1]
			nbr := g.Nbr[a.RowPtr[lo]:a.RowPtr[lo]:a.RowPtr[hi]]
			for i := lo; i < hi; i++ {
				cols, _ := a.Row(i)
				nbr = appendUnion(nbr, cols, tIdx[tPtr[i]:tPtr[i+1]], int32(i))
				g.Ptr[i+1] = int64(len(nbr))
			}
			nbrs[w] = nbr
		}
	})
	if len(nbrs) == 1 {
		g.Nbr = nbrs[0]
		return g, nil
	}
	// Moving a chunk down never reaches a stretch not yet moved, unless
	// one outgrew its stretch: then all of them are copied out.
	dst, total, spilled := g.Nbr, 0, false
	for w, nbr := range nbrs {
		total += len(nbr)
		spilled = spilled || len(nbr) > int(a.RowPtr[chunks[w+1]]-a.RowPtr[chunks[w]])
	}
	if spilled {
		dst = make([]int32, 0, total)
	}
	// Chunk w's row pointers count from its own start.
	for w, nbr := range nbrs {
		off := int64(len(dst))
		dst = append(dst, nbr...)
		for i := chunks[w]; i < chunks[w+1]; i++ {
			g.Ptr[i+1] += off
		}
	}
	g.Nbr = dst
	return g, nil
}

// rowChunks cuts a's rows into one contiguous chunk per worker of r
// (one chunk when r is nil) of about equal nonzeros: chunk w is rows
// chunks[w]..chunks[w+1].
func rowChunks(a *sparse.CSR, r sparse.Runner) []int {
	w := 1
	if r != nil {
		w = r.Workers()
	}
	chunks := make([]int, w+1)
	for c := 1; c < w; c++ {
		share := a.NNZ() * int64(c) / int64(w)
		chunks[c] = sort.Search(a.Rows, func(i int) bool { return a.RowPtr[i] >= share })
	}
	chunks[w] = a.Rows
	return chunks
}

// transposePattern returns the row pointers and column indices of aᵀ and
// never touches a value. Each chunk of a's rows counts its columns into
// a cursor array of its own, so the scatter runs chunk by chunk on r's
// workers, and a chunk's rows land behind those of the chunks before it:
// every transposed row ascends, as the serial scatter leaves it.
func transposePattern(a *sparse.CSR, chunks []int, r sparse.Runner) (rowPtr []int64, colIdx []int32) {
	n := a.Cols
	rowPtr, colIdx = make([]int64, n+1), make([]int32, a.NNZ())
	next := make([][]int64, len(chunks)-1)
	sparse.ForRanges(r, 0, len(next), func(_, start, end int) {
		for w := start; w < end; w++ {
			cnt := make([]int64, n)
			for _, c := range a.ColIdx[a.RowPtr[chunks[w]]:a.RowPtr[chunks[w+1]]] {
				cnt[c]++
			}
			next[w] = cnt
		}
	})
	for c := 0; c < n; c++ {
		at := rowPtr[c]
		for _, cur := range next {
			at, cur[c] = at+cur[c], at
		}
		rowPtr[c+1] = at
	}
	sparse.ForRanges(r, 0, len(next), func(_, start, end int) {
		for w := start; w < end; w++ {
			cur := next[w]
			for i := chunks[w]; i < chunks[w+1]; i++ {
				cols, _ := a.Row(i)
				for _, c := range cols {
					colIdx[cur[c]] = int32(i)
					cur[c]++
				}
			}
		}
	})
	return rowPtr, colIdx
}

// GreedyColor computes a distance-1 coloring: adjacent vertices get
// different colors. Vertices are visited 0..n-1 — for ABMC block graphs
// that preserves the locality of the original row order — and each
// takes the smallest color no neighbor holds. It returns the color of
// each vertex and the number of colors used, compacted to
// 0..numColors-1.
func GreedyColor(g *Adj) ([]int32, int) {
	n := g.N
	color := make([]int32, n)
	for i := range color {
		color[i] = -1
	}
	// forbidden[c] == v marks color c as used by a neighbor of v; the
	// stamp trick avoids clearing the array each vertex.
	forbidden := make([]int32, n+1)
	for i := range forbidden {
		forbidden[i] = -1
	}
	maxColor := int32(-1)
	for v := int32(0); int(v) < n; v++ {
		for _, u := range g.Neighbors(int(v)) {
			if c := color[u]; c >= 0 {
				forbidden[c] = v
			}
		}
		c := int32(0)
		for forbidden[c] == v {
			c++
		}
		color[v] = c
		if c > maxColor {
			maxColor = c
		}
	}
	return color, int(maxColor) + 1
}
