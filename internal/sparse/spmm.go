package sparse

// SpMMRange computes Y[lo:hi] = (A*X)[lo:hi] for the row range [lo, hi)
// of a block of nv dense vectors stored row-major (X[i*nv+c] is component
// c of logical vector x_c at row i). One pass over A serves all nv
// vectors, so the matrix is read once instead of nv times — the
// multi-vector analogue of the paper's traffic argument. It is the block
// analogue of SpMVRange and the building block the batched parallel
// kernels partition over. The nv = 2 loop keeps the per-vector partial
// sums in registers, nv = 4 (the FB head U*X0) hands each row to the
// 4-lane row primitive of rowacc.go; other widths accumulate directly
// into the output stripe.
func SpMMRange(a *CSR, x, y []float64, nv, lo, hi int) {
	rp, ci, v := a.RowPtr, a.ColIdx, a.Val
	switch nv {
	case 1:
		SpMVRange(a, x, y, lo, hi)
	case 2:
		for i := lo; i < hi; i++ {
			var s0, s1 float64
			cr := ci[rp[i]:rp[i+1]]
			vr := v[rp[i]:rp[i+1]]
			vr = vr[:len(cr)]
			for k := 0; k < len(cr); k++ {
				c := int(cr[k]) * 2
				xv := x[c : c+2 : c+2]
				s0 += vr[k] * xv[0]
				s1 += vr[k] * xv[1]
			}
			yi := y[2*i : 2*i+2 : 2*i+2]
			yi[0], yi[1] = s0, s1
		}
	case 4:
		for i := lo; i < hi; i++ {
			yi := (*[4]float64)(y[4*i : 4*i+4])
			*yi = [4]float64{}
			RowAcc4Asc(yi, a, i, x, 4)
		}
	default:
		for i := lo; i < hi; i++ {
			yi := y[i*nv : i*nv+nv : i*nv+nv]
			for c := range yi {
				yi[c] = 0
			}
			for k := rp[i]; k < rp[i+1]; k++ {
				xv := x[int(ci[k])*nv : int(ci[k])*nv+nv]
				val := v[k]
				for c := range yi {
					yi[c] += val * xv[c]
				}
			}
		}
	}
}

// PackVectors interleaves nv column vectors (each length n) into the
// row-major block layout SpMM consumes.
func PackVectors(cols [][]float64) []float64 {
	nv := len(cols)
	if nv == 0 {
		return nil
	}
	n := len(cols[0])
	out := make([]float64, n*nv)
	for c, col := range cols {
		if len(col) != n {
			panic("sparse: PackVectors ragged input")
		}
		for i, v := range col {
			out[i*nv+c] = v
		}
	}
	return out
}

// UnpackVectors splits a row-major block back into nv column vectors.
func UnpackVectors(block []float64, n, nv int) [][]float64 {
	if len(block) != n*nv {
		panic("sparse: UnpackVectors dimension mismatch")
	}
	cols := make([][]float64, nv)
	for c := range cols {
		cols[c] = make([]float64, n)
		for i := 0; i < n; i++ {
			cols[c][i] = block[i*nv+c]
		}
	}
	return cols
}
