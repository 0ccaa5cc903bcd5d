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
// is (xy, xy[m:], 2m); separate is (a, b, m). The m = 4 kernels are BtB
// only: they read both stripes of a column through one 8-wide window (one
// bounds check, four packed loads), which the strided form cannot
// express.
//
// Every backward sweep is monotone: rows are walked downward, and so are
// each row's entries, which makes ColIdx and Val one descending stream
// for the hardware prefetcher instead of "up a row, back two" (pwtk x8,
// out of cache: scalar 87 -> 75 ms per sweep, m = 4 BtB 147 -> 126).

// fbForward1 is the single-vector forward sweep. d, tmp and the row ends
// go through [lo, hi) windows, and the entries of all rows through one
// running index j into ColIdx and Val, trimmed to one capacity so the
// window check on the first covers the second; xe and xo are trimmed to
// one length so an entry's first gather proves its second. What is left
// per nonzero is the gather check. Per-row cr/vr slices, which the
// backward sweep affords, cost this one its registers: beside the
// diagonal terms an ascending loop over them spills its index and
// reloads five values on every back edge (pwtk 1.18 against 1.01 ns/nnz
// in cache; G3_circuit's two entries per row 0.76 against 0.71 ms).
// The pipelined sweep splits each of its two sums over two accumulators,
// the tail sweep its one sum over four.
func fbForward1(tri *sparse.Triangular, xe, xo, tmp []float64, rs, lo, hi int, last bool) {
	if lo >= hi {
		return
	}
	rp, ci := tri.L.RowPtr, tri.L.ColIdx
	v := tri.L.Val[:len(ci):len(ci)]
	ci = ci[:len(ci):len(ci)]
	xe = xe[:len(xo)]
	ds := tri.D[lo:hi]
	ts := tmp[lo:hi]
	ts = ts[:len(ds)]
	rps := rp[lo+1 : hi+1]
	rps = rps[:len(ds)]
	j := int(rp[lo])
	if last {
		for ii, rhi := range rps {
			s0 := ts[ii] + ds[ii]*xe[rs*(lo+ii)]
			var s1, s2, s3 float64
			for ; j+4 <= int(rhi); j += 4 {
				c := ci[j : j+4 : j+4]
				w := v[j : j+4 : j+4]
				s0 += w[0] * xe[rs*int(c[0])]
				s1 += w[1] * xe[rs*int(c[1])]
				s2 += w[2] * xe[rs*int(c[2])]
				s3 += w[3] * xe[rs*int(c[3])]
			}
			for ; j < int(rhi); j++ {
				s0 += v[j] * xe[rs*int(ci[j])]
			}
			xo[rs*(lo+ii)] = (s0 + s1) + (s2 + s3)
		}
		return
	}
	for ii, rhi := range rps {
		di := ds[ii]
		s0 := ts[ii] + di*xe[rs*(lo+ii)]
		var s1, u0, u1 float64
		for ; j+2 <= int(rhi); j += 2 {
			c := ci[j : j+2 : j+2]
			w := v[j : j+2 : j+2]
			c0, c1 := rs*int(c[0]), rs*int(c[1])
			s0 += w[0] * xe[c0]
			u0 += w[0] * xo[c0]
			s1 += w[1] * xe[c1]
			u1 += w[1] * xo[c1]
		}
		if j < int(rhi) {
			c0 := rs * int(ci[j])
			s0 += v[j] * xe[c0]
			u0 += v[j] * xo[c0]
			j++
		}
		s0 += s1
		xo[rs*(lo+ii)] = s0
		ts[ii] = (u0 + u1) + di*s0
	}
}

// fbBackward1 is the single-vector backward sweep: fbForward1 without
// the diagonal, rows and each row's entries both walked downward so ci
// and v are one descending stream.
func fbBackward1(tri *sparse.Triangular, xe, xo, tmp []float64, rs, lo, hi int, last bool) {
	if lo >= hi {
		return
	}
	rp, ci, v := tri.U.RowPtr, tri.U.ColIdx, tri.U.Val
	xe = xe[:len(xo)]
	ts := tmp[lo:hi]
	rps := rp[lo:hi]
	rps = rps[:len(ts)]
	rhi := rp[hi]
	if last {
		for ii := len(rps) - 1; ii >= 0; ii-- {
			rlo := rps[ii]
			cr := ci[rlo:rhi]
			vr := v[rlo:rhi]
			vr = vr[:len(cr)]
			s0 := ts[ii]
			var s1, s2, s3 float64
			k := len(cr)
			for ; k >= 4; k -= 4 {
				c := cr[k-4 : k : k]
				w := vr[k-4 : k : k]
				s0 += w[3] * xo[rs*int(c[3])]
				s1 += w[2] * xo[rs*int(c[2])]
				s2 += w[1] * xo[rs*int(c[1])]
				s3 += w[0] * xo[rs*int(c[0])]
			}
			for k--; k >= 0; k-- {
				s0 += vr[k] * xo[rs*int(cr[k])]
			}
			xe[rs*(lo+ii)] = (s0 + s1) + (s2 + s3)
			rhi = rlo
		}
		return
	}
	for ii := len(rps) - 1; ii >= 0; ii-- {
		rlo := rps[ii]
		cr := ci[rlo:rhi]
		vr := v[rlo:rhi]
		vr = vr[:len(cr)]
		s0 := ts[ii]
		var s1, u0, u1 float64
		k := len(cr)
		for ; k >= 2; k -= 2 {
			c := cr[k-2 : k : k]
			w := vr[k-2 : k : k]
			c0, c1 := rs*int(c[1]), rs*int(c[0])
			s0 += w[1] * xo[c0]
			u0 += w[1] * xe[c0]
			s1 += w[0] * xo[c1]
			u1 += w[0] * xe[c1]
		}
		if k > 0 {
			c0 := rs * int(cr[0])
			s0 += vr[0] * xo[c0]
			u0 += vr[0] * xe[c0]
		}
		xe[rs*(lo+ii)] = s0 + s1
		ts[ii] = u0 + u1
		rhi = rlo
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
			for j := rp[i+1] - 1; j >= rp[i]; j-- {
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
		for j := rp[i+1] - 1; j >= rp[i]; j-- {
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

// fbForwardBtB4 is the m = 4 forward sweep, BtB layout: per-row set-up
// around a row primitive of internal/sparse (rowacc.go; packed SSE2 on
// amd64), which sums in place. The pipelined sweep hands the 8-lane
// primitive the row's odd stripe for the next iterate (gathered from the
// even stripes) and its tmp row for the lookahead (from the odd ones),
// one 8-wide window per entry; the tail is the first half alone, through
// the 4-lane one.
func fbForwardBtB4(tri *sparse.Triangular, xy, tmp []float64, lo, hi int, last bool) {
	d := tri.D
	for i := lo; i < hi; i++ {
		xi := (*[8]float64)(xy[8*i : 8*i+8])
		ti := (*[4]float64)(tmp[4*i : 4*i+4])
		di := d[i]
		s := (*[4]float64)(xi[4:])
		*s = [4]float64{ti[0] + di*xi[0], ti[1] + di*xi[1], ti[2] + di*xi[2], ti[3] + di*xi[3]}
		if last {
			sparse.RowAcc4Asc(s, tri.L, i, xy, 8)
			continue
		}
		*ti = [4]float64{}
		sparse.RowAcc8Asc(s, ti, tri.L, i, xy)
		*ti = [4]float64{ti[0] + di*s[0], ti[1] + di*s[1], ti[2] + di*s[2], ti[3] + di*s[3]}
	}
}

// fbBackwardBtB4 is the m = 4 backward sweep, BtB layout: the lookahead
// (from the even stripes) sums into the row's tmp, the next iterate (from
// the odd ones) into its even stripe; the tail reads the odd stripes as
// xy[4:] at stride 8.
func fbBackwardBtB4(tri *sparse.Triangular, xy, tmp []float64, lo, hi int, last bool) {
	if lo >= hi {
		return
	}
	odd := xy[4:]
	for i := hi - 1; i >= lo; i-- {
		xi := (*[4]float64)(xy[8*i : 8*i+4])
		ti := (*[4]float64)(tmp[4*i : 4*i+4])
		*xi = [4]float64{ti[0], ti[1], ti[2], ti[3]}
		if last {
			sparse.RowAcc4Desc(xi, tri.U, i, odd, 8)
			continue
		}
		*ti = [4]float64{}
		sparse.RowAcc8Desc(ti, xi, tri.U, i, xy)
	}
}
