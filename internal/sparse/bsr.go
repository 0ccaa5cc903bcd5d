package sparse

// BSR is the block compressed sparse row format: the matrix is tiled
// into R x C dense blocks, and block rows are stored CSR-style with
// one column index per nonzero block. FEM matrices with vector
// degrees of freedom (audikw_1, inline_1, ... in the paper's suite
// have 2-3 DOF nodes) have natural small dense blocks, so BSR cuts
// index storage by ~R*C and enables register-blocked kernels — one of
// the classic storage alternatives to weigh against the paper's CSR
// choice.
type BSR struct {
	Rows, Cols   int // logical (scalar) dimensions
	R, C         int // block dimensions
	BRows, BCols int // block-grid dimensions
	RowPtr       []int64
	ColIdx       []int32
	Val          []float64 // nnzb blocks, each R*C row-major
}

// ToBSR converts a CSR matrix to BSR with R x C blocks. Any block
// containing at least one nonzero is stored densely (zero-filled).
func ToBSR(a *CSR, r, c int) *BSR {
	if r < 1 || c < 1 {
		panic("sparse: BSR block dims must be positive")
	}
	bRows := (a.Rows + r - 1) / r
	bCols := (a.Cols + c - 1) / c
	b := &BSR{
		Rows: a.Rows, Cols: a.Cols,
		R: r, C: c, BRows: bRows, BCols: bCols,
		RowPtr: make([]int64, bRows+1),
	}
	// Pass 1: count distinct block columns per block row.
	mark := make([]int32, bCols)
	for i := range mark {
		mark[i] = -1
	}
	for br := 0; br < bRows; br++ {
		count := int64(0)
		for i := br * r; i < (br+1)*r && i < a.Rows; i++ {
			cols, _ := a.Row(i)
			for _, col := range cols {
				bc := int(col) / c
				if mark[bc] != int32(br) {
					mark[bc] = int32(br)
					count++
				}
			}
		}
		b.RowPtr[br+1] = b.RowPtr[br] + count
	}
	nnzb := b.RowPtr[bRows]
	b.ColIdx = make([]int32, nnzb)
	b.Val = make([]float64, nnzb*int64(r*c))
	// Pass 2: fill. Within a block row, block columns appear in
	// ascending order because each CSR row is sorted and we merge the
	// per-row streams via a per-blockrow position map.
	pos := make(map[int32]int64, 16)
	for br := 0; br < bRows; br++ {
		for k := range pos {
			delete(pos, k)
		}
		w := b.RowPtr[br]
		// First, establish the sorted block-column order: walk all
		// scalar rows, collecting block columns; insertion keeps the
		// slice sorted (block rows are short).
		blocks := b.ColIdx[b.RowPtr[br]:b.RowPtr[br]:b.RowPtr[br+1]]
		for i := br * r; i < (br+1)*r && i < a.Rows; i++ {
			cols, _ := a.Row(i)
			for _, col := range cols {
				bc := int32(int(col) / c)
				if _, ok := pos[bc]; ok {
					continue
				}
				// Insert bc into the sorted blocks slice.
				lo := 0
				for lo < len(blocks) && blocks[lo] < bc {
					lo++
				}
				blocks = append(blocks, 0)
				copy(blocks[lo+1:], blocks[lo:])
				blocks[lo] = bc
				pos[bc] = 1 // placeholder; offsets assigned below
			}
		}
		for idx, bc := range blocks {
			pos[bc] = w + int64(idx)
		}
		// Scatter values into their dense blocks.
		for i := br * r; i < (br+1)*r && i < a.Rows; i++ {
			cols, vals := a.Row(i)
			for kk, col := range cols {
				bc := int32(int(col) / c)
				blk := pos[bc]
				ri := i - br*r
				ci := int(col) - int(bc)*c
				b.Val[blk*int64(r*c)+int64(ri*c+ci)] = vals[kk]
			}
		}
	}
	return b
}

// SpMV computes y = B*x.
func (b *BSR) SpMV(x, y []float64) {
	if len(x) < b.Cols || len(y) < b.Rows {
		panic("sparse: BSR SpMV dimension mismatch")
	}
	b.SpMVRange(x, y, 0, b.Rows)
}

// SpMVRange computes y[lo:hi] = (B*x)[lo:hi] for the scalar row range
// [lo, hi). Block-row-aligned bounds (multiples of R) keep each
// worker's blocks private in a row-parallel partition; unaligned
// bounds are still handled correctly (the partial block row is
// streamed with its scalar rows clamped to the range). The register-
// blocked inner loops specialize the 2/3/4-wide blocks of FEM vector
// degrees of freedom.
func (b *BSR) SpMVRange(x, y []float64, lo, hi int) {
	if hi > b.Rows {
		hi = b.Rows
	}
	if lo < 0 {
		lo = 0
	}
	r, c := b.R, b.C
	rc := r * c
	// Register-blocked fast paths: square 2/3/4 blocks starting on a
	// block boundary with no partial block column keep the whole
	// accumulator set in registers and skip the per-block dispatch; a
	// partial trailing block row falls through to the generic loop.
	if r == c && lo%r == 0 && b.Cols%c == 0 {
		brHi := hi / r
		switch r {
		case 2:
			b.spmv2(x, y, lo/2, brHi)
		case 3:
			b.spmv3(x, y, lo/3, brHi)
		case 4:
			b.spmv4(x, y, lo/4, brHi)
		default:
			brHi = lo / r
		}
		lo = brHi * r
		if lo >= hi {
			return
		}
	}
	var accBuf [16]float64
	for br := lo / r; br*r < hi; br++ {
		yBase := br * r
		riLo := 0
		if yBase < lo {
			riLo = lo - yBase
		}
		riHi := r
		if yBase+riHi > hi {
			riHi = hi - yBase
		}
		rows := riHi - riLo
		var acc []float64
		if rows <= len(accBuf) {
			acc = accBuf[:rows]
			for i := range acc {
				acc[i] = 0
			}
		} else {
			acc = make([]float64, rows)
		}
		for k := b.RowPtr[br]; k < b.RowPtr[br+1]; k++ {
			xBase := int(b.ColIdx[k]) * c
			colsHere := c
			if xBase+colsHere > b.Cols {
				colsHere = b.Cols - xBase
			}
			blk := b.Val[k*int64(rc) : (k+1)*int64(rc)]
			xv := x[xBase : xBase+colsHere : xBase+colsHere]
			switch colsHere {
			case 2:
				x0, x1 := xv[0], xv[1]
				for ri := riLo; ri < riHi; ri++ {
					row := blk[ri*c : ri*c+2 : ri*c+2]
					acc[ri-riLo] += row[0]*x0 + row[1]*x1
				}
			case 3:
				x0, x1, x2 := xv[0], xv[1], xv[2]
				for ri := riLo; ri < riHi; ri++ {
					row := blk[ri*c : ri*c+3 : ri*c+3]
					acc[ri-riLo] += row[0]*x0 + row[1]*x1 + row[2]*x2
				}
			case 4:
				x0, x1, x2, x3 := xv[0], xv[1], xv[2], xv[3]
				for ri := riLo; ri < riHi; ri++ {
					row := blk[ri*c : ri*c+4 : ri*c+4]
					acc[ri-riLo] += (row[0]*x0 + row[1]*x1) + (row[2]*x2 + row[3]*x3)
				}
			default:
				for ri := riLo; ri < riHi; ri++ {
					row := blk[ri*c : ri*c+colsHere]
					s := 0.0
					for ci := range row {
						s += row[ci] * xv[ci]
					}
					acc[ri-riLo] += s
				}
			}
		}
		for i, s := range acc {
			y[yBase+riLo+i] = s
		}
	}
}

// spmv2 is the register-blocked kernel for complete 2x2 block rows
// [brLo, brHi): both accumulators live in registers across the block
// stream, one multiply-add pair per stored scalar.
func (b *BSR) spmv2(x, y []float64, brLo, brHi int) {
	val, colIdx := b.Val, b.ColIdx
	for br := brLo; br < brHi; br++ {
		var s0, s1 float64
		for k := b.RowPtr[br]; k < b.RowPtr[br+1]; k++ {
			xv := x[int(colIdx[k])*2:]
			blk := val[k*4 : k*4+4 : k*4+4]
			x0, x1 := xv[0], xv[1]
			s0 += blk[0]*x0 + blk[1]*x1
			s1 += blk[2]*x0 + blk[3]*x1
		}
		y[br*2] = s0
		y[br*2+1] = s1
	}
}

// spmv3 is the register-blocked kernel for complete 3x3 block rows.
func (b *BSR) spmv3(x, y []float64, brLo, brHi int) {
	val, colIdx := b.Val, b.ColIdx
	for br := brLo; br < brHi; br++ {
		var s0, s1, s2 float64
		for k := b.RowPtr[br]; k < b.RowPtr[br+1]; k++ {
			xv := x[int(colIdx[k])*3:]
			blk := val[k*9 : k*9+9 : k*9+9]
			x0, x1, x2 := xv[0], xv[1], xv[2]
			s0 += blk[0]*x0 + blk[1]*x1 + blk[2]*x2
			s1 += blk[3]*x0 + blk[4]*x1 + blk[5]*x2
			s2 += blk[6]*x0 + blk[7]*x1 + blk[8]*x2
		}
		y[br*3] = s0
		y[br*3+1] = s1
		y[br*3+2] = s2
	}
}

// spmv4 is the register-blocked kernel for complete 4x4 block rows.
func (b *BSR) spmv4(x, y []float64, brLo, brHi int) {
	val, colIdx := b.Val, b.ColIdx
	for br := brLo; br < brHi; br++ {
		var s0, s1, s2, s3 float64
		for k := b.RowPtr[br]; k < b.RowPtr[br+1]; k++ {
			xv := x[int(colIdx[k])*4:]
			blk := val[k*16 : k*16+16 : k*16+16]
			x0, x1, x2, x3 := xv[0], xv[1], xv[2], xv[3]
			s0 += (blk[0]*x0 + blk[1]*x1) + (blk[2]*x2 + blk[3]*x3)
			s1 += (blk[4]*x0 + blk[5]*x1) + (blk[6]*x2 + blk[7]*x3)
			s2 += (blk[8]*x0 + blk[9]*x1) + (blk[10]*x2 + blk[11]*x3)
			s3 += (blk[12]*x0 + blk[13]*x1) + (blk[14]*x2 + blk[15]*x3)
		}
		y[br*4] = s0
		y[br*4+1] = s1
		y[br*4+2] = s2
		y[br*4+3] = s3
	}
}

// CountBSRBlocks returns the blocks ToBSR(a, r, r) would store for
// r = 2, 3 and 4 (at index r-2), in one pass over a's structure that
// neither reads its values nor builds a block — the cheap count a
// block-size detector prices fill with. A run of a row's columns in one
// block costs one look-up, and a 4 x 4 block is looked up only when one
// of its 2 x 2 blocks is new: it holds the entries of exactly four.
func CountBSRBlocks(a *CSR) (n [3]int64) {
	// 1 + the last block row of each size to store a block column.
	m2, m3, m4 := make([]int32, a.Cols/2+1), make([]int32, a.Cols/3+1), make([]int32, a.Cols/4+1)
	for i := 0; i < a.Rows; i++ {
		br2, br3, br4 := int32(i/2)+1, int32(i/3)+1, int32(i/4)+1
		// The first columns of the current 2- and 3-column blocks; none
		// yet, so every column is at least 4 past them.
		lo2, lo3 := ^uint32(0)-3, ^uint32(0)-3
		for _, col := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			c := uint32(col)
			if c-lo2 >= 2 {
				lo2 = c &^ 1
				if m2[c/2] != br2 {
					m2[c/2] = br2
					n[0]++
					if m4[c/4] != br4 {
						m4[c/4] = br4
						n[2]++
					}
				}
			}
			if c-lo3 >= 3 {
				lo3 = c / 3 * 3
				if m3[c/3] != br3 {
					m3[c/3] = br3
					n[1]++
				}
			}
		}
	}
	return n
}
