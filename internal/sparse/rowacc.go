package sparse

// Row primitives of the m = 4 kernels: the entries of row i of a applied
// to a block of interleaved vectors, accumulated into the lanes' partial
// sums where they live. Each entry is one multiply then one add per lane,
// in entry order, so a row's result bits depend on neither the form (Go
// below, SSE2 assembly in rowacc_amd64.s) nor the lane count.
//
//	RowAcc8: lo[l] += Val[k] * xy[8*ColIdx[k]+l]          l < 4
//	         hi[l] += Val[k] * xy[8*ColIdx[k]+4+l]
//	RowAcc4: lo[l] += Val[k] * x[stride*ColIdx[k]+l]      l < 4
//
// for RowPtr[i] <= k < RowPtr[i+1], Asc upward, Desc downward (the
// backward sweeps' one descending stream). RowAcc8 is the pipelined FB
// sweep over a back-to-back block: both parities of a column through one
// 8-wide window, the two halves of the sums in two places because that
// is where a sweep keeps them (a stripe of xy, a row of tmp). RowAcc4 is
// the tail sweeps (stride 8; the odd parity is the caller's xy[4:]) and
// the nv = 4 SpMM (stride 4).
//
// The primitives take the matrix and the row rather than the row's
// slices, and sum in place rather than in a scratch array, for the rows
// of two entries: there a sweep is all per-row set-up, and what the
// caller does not compute it does not spill around the call either.
// Summing in place also makes the stores that the next row's gather
// reads the assembly's 16-byte ones, which forward to 16-byte loads;
// 8-byte stores from Go do not.
//
// The gather is the one check per entry: a window that leaves x panics
// before anything of it is read, the sums as they were. The sums may be
// slots of x outside the windows the row gathers.
//
// The exported names are the assembly on amd64 (rowacc_amd64.go) and
// these Go forms elsewhere and under -race (rowacc_noasm.go), so the
// race detector keeps seeing every vector access.

func rowAcc8AscGo(lo, hi *[4]float64, a *CSR, i int, xy []float64) {
	c, v := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], a.Val[a.RowPtr[i]:a.RowPtr[i+1]]
	xy = xy[:len(xy):len(xy)]
	a0, a1, a2, a3, a4, a5, a6, a7 := lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]
	for k := 0; k < len(c); k++ {
		cb := 8 * int(c[k])
		w := xy[cb : cb+8 : cb+8]
		vk := v[k]
		a0 += vk * w[0]
		a1 += vk * w[1]
		a2 += vk * w[2]
		a3 += vk * w[3]
		a4 += vk * w[4]
		a5 += vk * w[5]
		a6 += vk * w[6]
		a7 += vk * w[7]
	}
	*lo, *hi = [4]float64{a0, a1, a2, a3}, [4]float64{a4, a5, a6, a7}
}

func rowAcc8DescGo(lo, hi *[4]float64, a *CSR, i int, xy []float64) {
	c, v := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], a.Val[a.RowPtr[i]:a.RowPtr[i+1]]
	xy = xy[:len(xy):len(xy)]
	a0, a1, a2, a3, a4, a5, a6, a7 := lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]
	for k := len(c) - 1; k >= 0; k-- {
		cb := 8 * int(c[k])
		w := xy[cb : cb+8 : cb+8]
		vk := v[k]
		a0 += vk * w[0]
		a1 += vk * w[1]
		a2 += vk * w[2]
		a3 += vk * w[3]
		a4 += vk * w[4]
		a5 += vk * w[5]
		a6 += vk * w[6]
		a7 += vk * w[7]
	}
	*lo, *hi = [4]float64{a0, a1, a2, a3}, [4]float64{a4, a5, a6, a7}
}

func rowAcc4AscGo(acc *[4]float64, a *CSR, i int, x []float64, stride int) {
	c, v := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], a.Val[a.RowPtr[i]:a.RowPtr[i+1]]
	x = x[:len(x):len(x)]
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	for k := 0; k < len(c); k++ {
		cb := stride * int(c[k])
		w := x[cb : cb+4 : cb+4]
		vk := v[k]
		a0 += vk * w[0]
		a1 += vk * w[1]
		a2 += vk * w[2]
		a3 += vk * w[3]
	}
	*acc = [4]float64{a0, a1, a2, a3}
}

func rowAcc4DescGo(acc *[4]float64, a *CSR, i int, x []float64, stride int) {
	c, v := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], a.Val[a.RowPtr[i]:a.RowPtr[i+1]]
	x = x[:len(x):len(x)]
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	for k := len(c) - 1; k >= 0; k-- {
		cb := stride * int(c[k])
		w := x[cb : cb+4 : cb+4]
		vk := v[k]
		a0 += vk * w[0]
		a1 += vk * w[1]
		a2 += vk * w[2]
		a3 += vk * w[3]
	}
	*acc = [4]float64{a0, a1, a2, a3}
}
