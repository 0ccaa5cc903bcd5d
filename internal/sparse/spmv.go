package sparse

// This file holds the scalar CSR kernel (Algorithm 1 of the paper) and
// its row-range form. The kernel is memory-bound; the Go-level
// optimizations are about not spending instructions on anything except
// the loads:
//
//   - The row loop ranges over a subslice of RowPtr and carries each
//     row's end offset forward as the next row's start, so the compiler
//     proves every RowPtr and y access in bounds (no per-row checks)
//     and each RowPtr entry is loaded once.
//   - The inner loop is 4-way unrolled through fixed-length windows
//     (cr[k:k+4:k+4]): the window's length is the constant 4, so all
//     eight element accesses per step are provably in bounds and only
//     one slice check per window remains. Plain unrolled indexing
//     (vr[k], vr[k+1], ...) defeats the prove pass in Go 1.24; check counts
//     in "Bounds-check elimination in the CSR kernels", git show 6d66388:EXPERIMENTS.md.
//   - The gather x[cr[k]] keeps its bounds check: the index is
//     data-dependent and no idiom can remove it.
//
// Verified with `go build -gcflags=-d=ssa/check_bce`.

// SpMV computes y = A*x with the standard CSR kernel (Algorithm 1 of
// the paper). y must have length A.Rows and x length A.Cols; y is
// overwritten. The inner loop is 4-way unrolled: on the evaluation
// platforms the kernel is memory-bound, and unrolling exposes enough
// independent FMA chains to saturate the load ports without relying on
// auto-vectorization (which Go does not perform).
func SpMV(a *CSR, x, y []float64) {
	if len(x) < a.Cols || len(y) < a.Rows {
		panic("sparse: SpMV dimension mismatch")
	}
	SpMVRange(a, x, y, 0, a.Rows)
}

// SpMVRange computes y[lo:hi] = (A*x)[lo:hi] for the row range
// [lo, hi). It is the building block the parallel kernels partition
// over.
func SpMVRange(a *CSR, x, y []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	rp, ci, v := a.RowPtr, a.ColIdx, a.Val
	ys := y[lo:hi]
	rps := rp[lo+1 : hi+1]
	rps = rps[:len(ys)]
	rlo := rp[lo]
	for ii := range rps {
		rhi := rps[ii]
		cr := ci[rlo:rhi]
		vr := v[rlo:rhi]
		vr = vr[:len(cr)]
		var s0, s1, s2, s3 float64
		k := 0
		for ; k+4 <= len(cr); k += 4 {
			c := cr[k : k+4 : k+4]
			w := vr[k : k+4 : k+4]
			s0 += w[0] * x[c[0]]
			s1 += w[1] * x[c[1]]
			s2 += w[2] * x[c[2]]
			s3 += w[3] * x[c[3]]
		}
		for ; k < len(cr); k++ {
			s0 += vr[k] * x[cr[k]]
		}
		ys[ii] = (s0 + s1) + (s2 + s3)
		rlo = rhi
	}
}
