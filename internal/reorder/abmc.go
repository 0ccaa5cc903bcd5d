package reorder

import (
	"fmt"
	"time"

	"fbmpk/internal/graph"
	"fbmpk/internal/sparse"
)

// ABMCOptions configures the algebraic block multi-color ordering.
type ABMCOptions struct {
	// NumBlocks is the number of row blocks to form. The paper's
	// implementation defaults to 512 or 1024 blocks; 0 selects 512
	// (or n for tiny matrices).
	NumBlocks int
	// Pool, when non-nil, parallelizes the O(nnz) preprocessing passes
	// (block-graph discovery and, in ABMCReorder, the symmetric
	// permutation apply). The greedy coloring itself stays serial: its
	// result depends on visit order, and a deterministic ordering is
	// what makes cached and fresh plans bitwise identical.
	Pool sparse.Runner
}

// DefaultNumBlocks is the paper's default block count.
const DefaultNumBlocks = 512

// ABMCResult describes an ABMC ordering of a matrix. All block and
// color structures refer to the NEW (permuted) row numbering:
// block b covers permuted rows BlockPtr[b]..BlockPtr[b+1], and the
// blocks of color c are the contiguous block range
// ColorPtr[c]..ColorPtr[c+1]. Because blocks are sorted by color, the
// rows of one color form one contiguous span of the permuted matrix.
type ABMCResult struct {
	Perm      Perm    // perm[new] = old
	BlockPtr  []int32 // len = NumBlocks+1
	ColorPtr  []int32 // len = NumColors+1, indexes into blocks
	NumColors int

	// GraphTime and ColorTime break down the ordering construction:
	// block-graph discovery (parallelizable) vs greedy coloring
	// (serial by design). Informational; not part of the ordering.
	GraphTime time.Duration
	ColorTime time.Duration
}

// NumBlocks returns the number of row blocks in the ordering.
func (r *ABMCResult) NumBlocks() int { return len(r.BlockPtr) - 1 }

// ABMC computes the algebraic block multi-color ordering of a square
// matrix (Iwashita et al., the method of Section III-D): rows are
// grouped into contiguous blocks, the quotient block graph is colored
// so adjacent blocks differ in color, and blocks are reordered by
// (color, block). Same-colored blocks share no matrix entry, so after
// applying the permutation the blocks of one color can be processed in
// parallel in the Gauss-Seidel-style forward/backward sweeps of FBMPK.
func ABMC(a *sparse.CSR, opt ABMCOptions) (*ABMCResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("reorder: ABMC: %w", sparse.ErrNotSquare)
	}
	n := a.Rows
	nb := opt.NumBlocks
	if nb <= 0 {
		nb = DefaultNumBlocks
	}
	if nb > n {
		nb = n
	}
	if n == 0 {
		return &ABMCResult{Perm: Perm{}, BlockPtr: []int32{0}, ColorPtr: []int32{0}}, nil
	}

	// 1. Contiguous blocking of the current row order.
	blockPtr := make([]int32, nb+1)
	for b := 0; b <= nb; b++ {
		blockPtr[b] = int32(int64(b) * int64(n) / int64(nb))
	}

	// 2. Color the block quotient graph. Graph discovery streams the
	// whole matrix and parallelizes; the greedy coloring is serial for
	// determinism (see ABMCOptions.Pool) and touches only the tiny
	// block graph.
	graphStart := time.Now()
	bg, err := graph.BlockGraphPool(a, blockPtr, opt.Pool)
	if err != nil {
		return nil, err
	}
	graphTime := time.Since(graphStart)
	colorStart := time.Now()
	color, numColors := graph.GreedyColor(bg)
	colorTime := time.Since(colorStart)

	// 3. Stable counting sort of blocks by color.
	colorPtr := make([]int32, numColors+1)
	for _, c := range color {
		colorPtr[c+1]++
	}
	for c := 0; c < numColors; c++ {
		colorPtr[c+1] += colorPtr[c]
	}
	blockOrder := make([]int32, nb) // new block position -> old block
	next := make([]int32, numColors)
	copy(next, colorPtr[:numColors])
	for b := 0; b < nb; b++ {
		c := color[b]
		blockOrder[next[c]] = int32(b)
		next[c]++
	}

	// 4. Expand to a row permutation and the new block pointer.
	perm := make(Perm, n)
	newBlockPtr := make([]int32, nb+1)
	w := int32(0)
	for nbPos, oldB := range blockOrder {
		newBlockPtr[nbPos] = w
		for i := blockPtr[oldB]; i < blockPtr[oldB+1]; i++ {
			perm[w] = i
			w++
		}
	}
	newBlockPtr[nb] = w

	return &ABMCResult{
		Perm:      perm,
		BlockPtr:  newBlockPtr,
		ColorPtr:  colorPtr,
		NumColors: numColors,
		GraphTime: graphTime,
		ColorTime: colorTime,
	}, nil
}

// ABMCReorder runs ABMC and returns both the ordering and the
// symmetrically permuted matrix B = P·A·Pᵀ. This is the one-off
// preprocessing step whose cost Fig 11 of the paper measures.
func ABMCReorder(a *sparse.CSR, opt ABMCOptions) (*ABMCResult, *sparse.CSR, error) {
	res, err := ABMC(a, opt)
	if err != nil {
		return nil, nil, err
	}
	b, err := res.Perm.ApplySymPool(a, opt.Pool)
	if err != nil {
		return nil, nil, err
	}
	return res, b, nil
}

// Validate checks the ABMC invariants against the PERMUTED matrix b:
// contiguous monotone block and color structure, a valid permutation,
// and — the property parallel FBMPK relies on — no entry of b connects
// two different blocks of the same color.
func (r *ABMCResult) Validate(b *sparse.CSR) error {
	if err := r.Perm.Validate(); err != nil {
		return err
	}
	n := len(r.Perm)
	nb := r.NumBlocks()
	if int(r.BlockPtr[nb]) != n || r.BlockPtr[0] != 0 {
		return fmt.Errorf("reorder: block pointer does not cover rows")
	}
	if int(r.ColorPtr[r.NumColors]) != nb || r.ColorPtr[0] != 0 {
		return fmt.Errorf("reorder: color pointer does not cover blocks")
	}
	if b.Rows != n || b.Cols != n {
		return fmt.Errorf("reorder: matrix size %dx%d does not match perm %d", b.Rows, b.Cols, n)
	}
	// rowColor/rowBlock in permuted numbering.
	rowBlock := make([]int32, n)
	for blk := 0; blk < nb; blk++ {
		if r.BlockPtr[blk] > r.BlockPtr[blk+1] {
			return fmt.Errorf("reorder: block pointer not monotone at %d", blk)
		}
		for i := r.BlockPtr[blk]; i < r.BlockPtr[blk+1]; i++ {
			rowBlock[i] = int32(blk)
		}
	}
	blockColor := make([]int32, nb)
	for c := 0; c < r.NumColors; c++ {
		for blk := r.ColorPtr[c]; blk < r.ColorPtr[c+1]; blk++ {
			blockColor[blk] = int32(c)
		}
	}
	for i := 0; i < n; i++ {
		cols, _ := b.Row(i)
		bi := rowBlock[i]
		for _, c := range cols {
			bj := rowBlock[c]
			if bi != bj && blockColor[bi] == blockColor[bj] {
				return fmt.Errorf("reorder: entry (%d,%d) joins blocks %d,%d of color %d",
					i, c, bi, bj, blockColor[bi])
			}
		}
	}
	return nil
}
