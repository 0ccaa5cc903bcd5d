package core

import "fbmpk/internal/sparse"

// The forward-backward sweep kernels over a row range [lo, hi): forward
// (over L, top-down) and backward (over U, bottom-up). fbState.forward
// and backward pick the one a run uses, once per (color, worker, sweep).
//
// forward:  completes the next iterate (odd slots) from the previous one
// (even slots) and, unless last, leaves tmp = (L + D) * x_next for the
// backward sweep (Algorithm 2 lines 7-16).
// backward: completes the next iterate (even slots) from the odd slots
// and, unless last, leaves tmp = U * x_next (Algorithm 2 lines 19-28).
// The final sweep skips the lookahead — the "tail" of Algorithm 2.
//
// The scalar (m = 1) and m-wide kernels serve both vector layouts
// through (xe, xo, rs): the even iterate, the odd iterate, and the row
// stride, with vector j of row i at xe[i*rs+j] / xo[i*rs+j]. Back-to-back
// is (xy, xy[m:], 2m); separate is (a, b, m). The register-blocked m = 4
// kernels stay per layout: the BtB ones read both stripes of a column
// through one 8-wide window (one bounds check), which the strided form
// cannot express.

// fbForward1 is the single-vector forward sweep.
func fbForward1(tri *sparse.Triangular, xe, xo, tmp []float64, rs, lo, hi int, last bool) {
	rp, ci, v := tri.L.RowPtr, tri.L.ColIdx, tri.L.Val
	d := tri.D
	if last {
		for i := lo; i < hi; i++ {
			sum0 := tmp[i] + d[i]*xe[rs*i]
			for j := rp[i]; j < rp[i+1]; j++ {
				sum0 += v[j] * xe[rs*int(ci[j])]
			}
			xo[rs*i] = sum0
		}
		return
	}
	for i := lo; i < hi; i++ {
		sum0 := tmp[i] + d[i]*xe[rs*i]
		sum1 := 0.0
		for j := rp[i]; j < rp[i+1]; j++ {
			c := rs * int(ci[j])
			sum0 += v[j] * xe[c]
			sum1 += v[j] * xo[c]
		}
		xo[rs*i] = sum0
		tmp[i] = sum1 + d[i]*sum0
	}
}

// fbBackward1 is the single-vector backward sweep.
func fbBackward1(tri *sparse.Triangular, xe, xo, tmp []float64, rs, lo, hi int, last bool) {
	rp, ci, v := tri.U.RowPtr, tri.U.ColIdx, tri.U.Val
	if last {
		for i := hi - 1; i >= lo; i-- {
			sum0 := tmp[i]
			for j := rp[i]; j < rp[i+1]; j++ {
				sum0 += v[j] * xo[rs*int(ci[j])]
			}
			xe[rs*i] = sum0
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		sum0 := tmp[i]
		sum1 := 0.0
		for j := rp[i]; j < rp[i+1]; j++ {
			c := rs * int(ci[j])
			sum0 += v[j] * xo[c]
			sum1 += v[j] * xe[c]
		}
		xe[rs*i] = sum0
		tmp[i] = sum1
	}
}

// fbForwardM is the m-wide forward sweep: every slot is a stripe of m
// contiguous components, so one pass over L advances all m vectors.
// Partial sums accumulate in place through the output stripes.
func fbForwardM(tri *sparse.Triangular, xe, xo, tmp []float64, m, rs, lo, hi int, last bool) {
	rp, ci, v := tri.L.RowPtr, tri.L.ColIdx, tri.L.Val
	d := tri.D
	if last {
		for i := lo; i < hi; i++ {
			even := xe[i*rs : i*rs+m]
			odd := xo[i*rs : i*rs+m : i*rs+m]
			ti := tmp[i*m : i*m+m]
			di := d[i]
			for c := range odd {
				odd[c] = ti[c] + di*even[c]
			}
			for j := rp[i]; j < rp[i+1]; j++ {
				cb := int(ci[j]) * rs
				xv := xe[cb : cb+m]
				vj := v[j]
				for c := range odd {
					odd[c] += vj * xv[c]
				}
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		even := xe[i*rs : i*rs+m]
		odd := xo[i*rs : i*rs+m : i*rs+m]
		ti := tmp[i*m : i*m+m : i*m+m]
		di := d[i]
		for c := range odd {
			odd[c] = ti[c] + di*even[c]
			ti[c] = 0
		}
		for j := rp[i]; j < rp[i+1]; j++ {
			cb := int(ci[j]) * rs
			xv := xe[cb : cb+m]
			nv := xo[cb : cb+m]
			vj := v[j]
			for c := range odd {
				odd[c] += vj * xv[c]
				ti[c] += vj * nv[c]
			}
		}
		for c := range odd {
			ti[c] += di * odd[c]
		}
	}
}

// fbBackwardM is the m-wide backward sweep.
func fbBackwardM(tri *sparse.Triangular, xe, xo, tmp []float64, m, rs, lo, hi int, last bool) {
	rp, ci, v := tri.U.RowPtr, tri.U.ColIdx, tri.U.Val
	if last {
		for i := hi - 1; i >= lo; i-- {
			even := xe[i*rs : i*rs+m : i*rs+m]
			ti := tmp[i*m : i*m+m]
			copy(even, ti)
			for j := rp[i]; j < rp[i+1]; j++ {
				cb := int(ci[j]) * rs
				xv := xo[cb : cb+m]
				vj := v[j]
				for c := range even {
					even[c] += vj * xv[c]
				}
			}
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		even := xe[i*rs : i*rs+m : i*rs+m]
		ti := tmp[i*m : i*m+m : i*m+m]
		copy(even, ti)
		for c := range ti {
			ti[c] = 0
		}
		for j := rp[i]; j < rp[i+1]; j++ {
			cb := int(ci[j]) * rs
			xv := xo[cb : cb+m]
			nv := xe[cb : cb+m]
			vj := v[j]
			for c := range even {
				even[c] += vj * xv[c]
				ti[c] += vj * nv[c]
			}
		}
	}
}

// fbForwardBtB4 is the register-blocked m = 4 forward sweep, BtB layout:
// both stripes' partial sums stay in registers (the same 4-way unrolling
// discipline as sparse.SpMV). Stripe accesses go through fixed-length
// windows (xy[cb:cb+8:cb+8]) so a single slice check covers the whole
// stripe pair — see internal/sparse/spmv.go for the idiom.
func fbForwardBtB4(tri *sparse.Triangular, xy, tmp []float64, lo, hi int, last bool) {
	rp, ci, v := tri.L.RowPtr, tri.L.ColIdx, tri.L.Val
	d := tri.D
	if last {
		for i := lo; i < hi; i++ {
			ib := 8 * i
			xi := xy[ib : ib+8 : ib+8]
			ti := tmp[4*i : 4*i+4 : 4*i+4]
			di := d[i]
			s0 := ti[0] + di*xi[0]
			s1 := ti[1] + di*xi[1]
			s2 := ti[2] + di*xi[2]
			s3 := ti[3] + di*xi[3]
			cr := ci[rp[i]:rp[i+1]]
			vr := v[rp[i]:rp[i+1]]
			vr = vr[:len(cr)]
			for k := 0; k < len(cr); k++ {
				cb := 8 * int(cr[k])
				w := xy[cb : cb+4 : cb+4]
				vj := vr[k]
				s0 += vj * w[0]
				s1 += vj * w[1]
				s2 += vj * w[2]
				s3 += vj * w[3]
			}
			xi[4], xi[5], xi[6], xi[7] = s0, s1, s2, s3
		}
		return
	}
	for i := lo; i < hi; i++ {
		ib := 8 * i
		xi := xy[ib : ib+8 : ib+8]
		ti := tmp[4*i : 4*i+4 : 4*i+4]
		di := d[i]
		s0 := ti[0] + di*xi[0]
		s1 := ti[1] + di*xi[1]
		s2 := ti[2] + di*xi[2]
		s3 := ti[3] + di*xi[3]
		var u0, u1, u2, u3 float64
		cr := ci[rp[i]:rp[i+1]]
		vr := v[rp[i]:rp[i+1]]
		vr = vr[:len(cr)]
		for k := 0; k < len(cr); k++ {
			cb := 8 * int(cr[k])
			w := xy[cb : cb+8 : cb+8]
			vj := vr[k]
			s0 += vj * w[0]
			s1 += vj * w[1]
			s2 += vj * w[2]
			s3 += vj * w[3]
			u0 += vj * w[4]
			u1 += vj * w[5]
			u2 += vj * w[6]
			u3 += vj * w[7]
		}
		xi[4], xi[5], xi[6], xi[7] = s0, s1, s2, s3
		ti[0] = u0 + di*s0
		ti[1] = u1 + di*s1
		ti[2] = u2 + di*s2
		ti[3] = u3 + di*s3
	}
}

// fbBackwardBtB4 is the register-blocked m = 4 backward sweep, BtB layout.
func fbBackwardBtB4(tri *sparse.Triangular, xy, tmp []float64, lo, hi int, last bool) {
	rp, ci, v := tri.U.RowPtr, tri.U.ColIdx, tri.U.Val
	if last {
		for i := hi - 1; i >= lo; i-- {
			ti := tmp[4*i : 4*i+4 : 4*i+4]
			s0, s1, s2, s3 := ti[0], ti[1], ti[2], ti[3]
			cr := ci[rp[i]:rp[i+1]]
			vr := v[rp[i]:rp[i+1]]
			vr = vr[:len(cr)]
			for k := 0; k < len(cr); k++ {
				cb := 8 * int(cr[k])
				w := xy[cb+4 : cb+8 : cb+8]
				vj := vr[k]
				s0 += vj * w[0]
				s1 += vj * w[1]
				s2 += vj * w[2]
				s3 += vj * w[3]
			}
			ib := 8 * i
			xi := xy[ib : ib+4 : ib+4]
			xi[0], xi[1], xi[2], xi[3] = s0, s1, s2, s3
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		ti := tmp[4*i : 4*i+4 : 4*i+4]
		s0, s1, s2, s3 := ti[0], ti[1], ti[2], ti[3]
		var u0, u1, u2, u3 float64
		cr := ci[rp[i]:rp[i+1]]
		vr := v[rp[i]:rp[i+1]]
		vr = vr[:len(cr)]
		for k := 0; k < len(cr); k++ {
			cb := 8 * int(cr[k])
			w := xy[cb : cb+8 : cb+8]
			vj := vr[k]
			s0 += vj * w[4]
			s1 += vj * w[5]
			s2 += vj * w[6]
			s3 += vj * w[7]
			u0 += vj * w[0]
			u1 += vj * w[1]
			u2 += vj * w[2]
			u3 += vj * w[3]
		}
		ib := 8 * i
		xi := xy[ib : ib+4 : ib+4]
		xi[0], xi[1], xi[2], xi[3] = s0, s1, s2, s3
		ti[0], ti[1], ti[2], ti[3] = u0, u1, u2, u3
	}
}

// fbForwardSep4 is the register-blocked m = 4 forward sweep, separate
// layout: xprev holds x_t, xnext receives x_{t+1}.
func fbForwardSep4(tri *sparse.Triangular, xprev, xnext, tmp []float64, lo, hi int, last bool) {
	rp, ci, v := tri.L.RowPtr, tri.L.ColIdx, tri.L.Val
	d := tri.D
	if last {
		for i := lo; i < hi; i++ {
			o := 4 * i
			xi := xprev[o : o+4 : o+4]
			ti := tmp[o : o+4 : o+4]
			di := d[i]
			s0 := ti[0] + di*xi[0]
			s1 := ti[1] + di*xi[1]
			s2 := ti[2] + di*xi[2]
			s3 := ti[3] + di*xi[3]
			cr := ci[rp[i]:rp[i+1]]
			vr := v[rp[i]:rp[i+1]]
			vr = vr[:len(cr)]
			for k := 0; k < len(cr); k++ {
				cb := 4 * int(cr[k])
				xp := xprev[cb : cb+4 : cb+4]
				vj := vr[k]
				s0 += vj * xp[0]
				s1 += vj * xp[1]
				s2 += vj * xp[2]
				s3 += vj * xp[3]
			}
			ni := xnext[o : o+4 : o+4]
			ni[0], ni[1], ni[2], ni[3] = s0, s1, s2, s3
		}
		return
	}
	for i := lo; i < hi; i++ {
		o := 4 * i
		xi := xprev[o : o+4 : o+4]
		ti := tmp[o : o+4 : o+4]
		di := d[i]
		s0 := ti[0] + di*xi[0]
		s1 := ti[1] + di*xi[1]
		s2 := ti[2] + di*xi[2]
		s3 := ti[3] + di*xi[3]
		var u0, u1, u2, u3 float64
		cr := ci[rp[i]:rp[i+1]]
		vr := v[rp[i]:rp[i+1]]
		vr = vr[:len(cr)]
		for k := 0; k < len(cr); k++ {
			cb := 4 * int(cr[k])
			xp := xprev[cb : cb+4 : cb+4]
			xn := xnext[cb : cb+4 : cb+4]
			vj := vr[k]
			s0 += vj * xp[0]
			s1 += vj * xp[1]
			s2 += vj * xp[2]
			s3 += vj * xp[3]
			u0 += vj * xn[0]
			u1 += vj * xn[1]
			u2 += vj * xn[2]
			u3 += vj * xn[3]
		}
		ni := xnext[o : o+4 : o+4]
		ni[0], ni[1], ni[2], ni[3] = s0, s1, s2, s3
		ti[0] = u0 + di*s0
		ti[1] = u1 + di*s1
		ti[2] = u2 + di*s2
		ti[3] = u3 + di*s3
	}
}

// fbBackwardSep4 is the register-blocked m = 4 backward sweep, separate
// layout: xprev holds x_t (the odd iterate), xnext receives x_{t+1}.
func fbBackwardSep4(tri *sparse.Triangular, xnext, xprev, tmp []float64, lo, hi int, last bool) {
	rp, ci, v := tri.U.RowPtr, tri.U.ColIdx, tri.U.Val
	if last {
		for i := hi - 1; i >= lo; i-- {
			o := 4 * i
			ti := tmp[o : o+4 : o+4]
			s0, s1, s2, s3 := ti[0], ti[1], ti[2], ti[3]
			cr := ci[rp[i]:rp[i+1]]
			vr := v[rp[i]:rp[i+1]]
			vr = vr[:len(cr)]
			for k := 0; k < len(cr); k++ {
				cb := 4 * int(cr[k])
				xp := xprev[cb : cb+4 : cb+4]
				vj := vr[k]
				s0 += vj * xp[0]
				s1 += vj * xp[1]
				s2 += vj * xp[2]
				s3 += vj * xp[3]
			}
			ni := xnext[o : o+4 : o+4]
			ni[0], ni[1], ni[2], ni[3] = s0, s1, s2, s3
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		o := 4 * i
		ti := tmp[o : o+4 : o+4]
		s0, s1, s2, s3 := ti[0], ti[1], ti[2], ti[3]
		var u0, u1, u2, u3 float64
		cr := ci[rp[i]:rp[i+1]]
		vr := v[rp[i]:rp[i+1]]
		vr = vr[:len(cr)]
		for k := 0; k < len(cr); k++ {
			cb := 4 * int(cr[k])
			xp := xprev[cb : cb+4 : cb+4]
			xn := xnext[cb : cb+4 : cb+4]
			vj := vr[k]
			s0 += vj * xp[0]
			s1 += vj * xp[1]
			s2 += vj * xp[2]
			s3 += vj * xp[3]
			u0 += vj * xn[0]
			u1 += vj * xn[1]
			u2 += vj * xn[2]
			u3 += vj * xn[3]
		}
		ni := xnext[o : o+4 : o+4]
		ni[0], ni[1], ni[2], ni[3] = s0, s1, s2, s3
		ti[0], ti[1], ti[2], ti[3] = u0, u1, u2, u3
	}
}
