package core

import (
	"fmt"
	"time"

	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// The forward-backward pipeline (Section III-B). State machine:
//
//	head:     tmp = U*x0                       (one pass over U)
//	forward:  x_{t+1}[i] = tmp[i] + d[i]*x_t[i] + (L*x_t)[i]
//	          and, pipelined in the same pass over L,
//	          tmp[i] = (L*x_{t+1})[i] + d[i]*x_{t+1}[i]
//	backward: x_{t+1}[i] = tmp[i] + (U*x_t)[i]  (rows bottom-up)
//	          and, pipelined, tmp[i] = (U*x_{t+1})[i]
//
// The forward lookahead is legal because L is strictly lower: row i
// only needs x_{t+1}[j] for j < i, already produced this sweep.
// Mirrored reasoning covers the backward sweep over strictly upper U.
// Each sweep reads its triangle once but completes one iterate and
// half of the next, so A is read about (k+1)/2 times instead of k.
//
// A block of m right-hand sides rides the same pipeline with every slot
// widened to a stripe of m contiguous components: one sweep of L/U then
// advances all m vectors, so each matrix read serves 2*m SpMV
// applications.
//
// Two storage layouts implement the pipeline:
//
//   - separate: iterates alternate between two row-major blocks a
//     (even) and b (odd), a[i*m+j] being vector j at row i (the "FB"
//     variant of the Fig 10 ablation);
//   - back-to-back (BtB, Section III-C): both live iterates interleave
//     in one block xy with xy[(2i+p)*m+j] (parity p), so the two loads
//     the inner loop issues per L/U entry share a cache line.
//
// One driver (fbState.work) executes every combination of layout,
// width, and worker count over a colorSchedule; the layout and width
// only select which sweep kernel a (color, worker) range is handed to.

// fbCall is what one pipeline pass is asked to do.
type fbCall struct {
	sch     *colorSchedule
	env     *runEnv
	tri     *sparse.Triangular
	xs      [][]float64
	x0b     []float64 // start block, row-major n*m (the input itself at m = 1)
	k       int
	coeffs  []float64
	cmb     []float64 // combination block, row-major n*m; nil without coeffs
	hook    IterateFunc
	scratch []float64 // the copy of an iterate the hook sees
}

// fbState is the pipeline state of one run: the layout buffers, pooled
// in plan workspaces and reused without zeroing (every sweep fully
// writes the slots it later reads, see workspace.go), plus the call in
// flight, which lives here so the per-worker body needs no closure.
type fbState struct {
	m   int  // right-hand sides per stripe
	btb bool // interleaved layout
	tmp []float64
	xy  []float64 // BtB block, 2*n*m
	a   []float64 // separate layout: even iterates, n*m
	b   []float64 // separate layout: odd iterates, n*m
	// it[p] and stride address iterate parity p in either layout:
	// vector j at row i is it[p][i*stride+j].
	it     [2][]float64
	stride int
	pack   []float64    // backing store of x0b for m > 1
	one    [1][]float64 // backs xs for single-vector calls

	fbCall
}

// shape sizes the layout buffers for dimension n, width m, reusing
// earlier allocations when they are large enough.
func (s *fbState) shape(n, m int, btb bool) {
	s.m, s.btb = m, btb
	s.tmp = ensureLen(s.tmp, n*m)
	if btb {
		s.xy = ensureLen(s.xy, 2*n*m)
		s.it = [2][]float64{s.xy, s.xy[min(m, len(s.xy)):]}
		s.stride = 2 * m
	} else {
		s.a = ensureLen(s.a, n*m)
		s.b = ensureLen(s.b, n*m)
		s.it = [2][]float64{s.a, s.b}
		s.stride = m
	}
	if m > 1 {
		s.pack = ensureLen(s.pack, n*m)
	}
}

// forward and backward hand rows [lo, hi) to the sweep kernel of the
// state's width and layout. Each specialization is kept by a measured
// ratio (general form / kept form, benchmark/run.sh, mpk-cache then
// mpk-dram):
//   - scalar m = 1 over the m-wide kernels: fb_mpk_ms 3.35x, 2.10x
//     (PR 16);
//   - m = 4 BtB on the packed row primitives over the m-wide kernels:
//     multi_mpk_ms 4.0x, 2.6x (PR 20, medians of three alternated runs;
//     2.60x, 1.77x with PR 16's scalar register blocking).
//
// The separate layout at m = 4 rides the m-wide kernels: only
// WithBtB(false) reaches it — no default path, no benchmark metric — so
// a pair of its own is not worth its lines.
func (s *fbState) forward(lo, hi int, last bool) {
	switch {
	case s.m == 1:
		fbForward1(s.tri, s.it[0], s.it[1], s.tmp, s.stride, lo, hi, last)
	case s.m == 4 && s.btb:
		fbForwardBtB4(s.tri, s.xy, s.tmp, lo, hi, last)
	default:
		fbForwardM(s.tri, s.it[0], s.it[1], s.tmp, s.m, s.stride, lo, hi, last)
	}
}

func (s *fbState) backward(lo, hi int, last bool) {
	switch {
	case s.m == 1:
		fbBackward1(s.tri, s.it[0], s.it[1], s.tmp, s.stride, lo, hi, last)
	case s.m == 4 && s.btb:
		fbBackwardBtB4(s.tri, s.xy, s.tmp, lo, hi, last)
	default:
		fbBackwardM(s.tri, s.it[0], s.it[1], s.tmp, s.m, s.stride, lo, hi, last)
	}
}

// The dense steps below are O(n) beside the O(nnz) sweeps, which still
// makes them a tenth of a call on matrices with a handful of entries per
// row: they walk each block once, row-major, and keep a plain strided
// loop for the single-vector case.

// init loads rows [lo, hi) of the start vectors into the even iterate
// and the packed head block, and starts the combination at c0 * x0.
func (s *fbState) init(lo, hi int) {
	even, m, rs := s.it[0], s.m, s.stride
	if m == 1 {
		x := s.xs[0]
		for i := lo; i < hi; i++ {
			even[i*rs] = x[i]
		}
	} else {
		for i := lo; i < hi; i++ {
			row := s.x0b[i*m : i*m+m]
			for j, x := range s.xs {
				row[j] = x[i]
			}
			copy(even[i*rs:i*rs+m], row)
		}
	}
	if s.cmb != nil {
		c0 := s.coeffs[0]
		for i := lo * m; i < hi*m; i++ {
			s.cmb[i] = c0 * s.x0b[i]
		}
	}
}

// accumulate adds c times rows [lo, hi) of iterate parity p to the
// combination block.
func (s *fbState) accumulate(p int, c float64, lo, hi int) {
	src, m, rs := s.it[p], s.m, s.stride
	if m == 1 {
		for i := lo; i < hi; i++ {
			s.cmb[i] += c * src[i*rs]
		}
		return
	}
	for i := lo; i < hi; i++ {
		ci := s.cmb[i*m : i*m+m : i*m+m]
		si := src[i*rs : i*rs+m]
		for j := range ci {
			ci[j] += c * si[j]
		}
	}
}

// vector gathers the single vector of iterate parity p into dst.
func (s *fbState) vector(p int, dst []float64) []float64 {
	src, rs := s.it[p], s.stride
	for i := range dst {
		dst[i] = src[i*rs]
	}
	return dst
}

// vectors unpacks iterate parity p into m fresh vectors of length n.
func (s *fbState) vectors(p, n int) [][]float64 {
	src, rs := s.it[p], s.stride
	out := make([][]float64, s.m)
	for j := range out {
		out[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		stripe := src[i*rs : i*rs+s.m]
		for j, v := range stripe {
			out[j][i] = v
		}
	}
	return out
}

// work is the forward-backward driver: worker id's share of one k-power
// pipeline pass over the run's schedule. Sweep t completes iterate t
// into the slots of parity t&1 — odd t is a forward sweep over the
// colors ascending, even t a backward sweep over them descending — with
// one barrier per color.
func (s *fbState) work(id int) {
	sch, env := s.sch, s.env
	tm := sch.team
	clock := tm.clock(env, id)
	dLo, dHi := sch.dense[id], sch.dense[id+1]
	s.init(dLo, dHi)
	tm.sync(clock, phaseHead, -1)
	// Head: tmp = U * X0 over the nnz-balanced row partition.
	sparse.SpMMRange(s.tri.U, s.x0b, s.tmp, s.m, sch.head[id], sch.head[id+1])
	tm.sync(clock, phaseHead, -1)
	skip := env.canceled() // cancellation observed: cross barriers, do no work

	nc := len(sch.rows)
	for t := 1; t <= s.k; t++ {
		p := t & 1
		ph := phaseBackward
		if p == 1 {
			ph = phaseForward
		}
		last := t == s.k
		clock.beginSweep()
		for ci := 0; ci < nc; ci++ {
			c := ci
			if p == 0 {
				c = nc - 1 - ci
			}
			if !skip {
				lo, hi := sch.rows[c][id], sch.rows[c][id+1]
				if p == 1 {
					s.forward(lo, hi, last)
				} else {
					s.backward(lo, hi, last)
				}
			}
			tm.sync(clock, ph, int32(c))
			if !skip && env.canceled() {
				skip = true
			}
		}
		clock.endSweep(ph, int32(t))
		if skip {
			continue
		}
		if s.cmb != nil && s.coeffs[t] != 0 {
			s.accumulate(p, s.coeffs[t], dLo, dHi)
		}
		// The hook observes the completed iterate on worker 0. The sweep
		// that follows never writes the slots being read (it fills the
		// other parity), and the other workers cannot start a second
		// sweep before worker 0 joins their next color barrier, so no
		// extra synchronization is needed.
		if s.hook != nil && id == 0 {
			s.hook(t, s.vector(p, s.scratch))
		}
	}
	clock.flush()
}

// run executes one pipeline pass computing k powers of the split tri
// applied to the m = len(xs) start vectors, on the schedule sch (which
// must have been built for tri's structure — the plan passes its pinned
// epoch's split, so value updates never touch a run in flight). The
// state must be shaped for (tri.N, m). On success iterate parity k&1
// holds A^k x_j and the returned block the combinations; hook
// (single-vector runs only) observes a scratch copy of each completed
// iterate.
func (s *fbState) run(sch *colorSchedule, env *runEnv, tri *sparse.Triangular, xs [][]float64, k int, coeffs []float64, hook IterateFunc) (cmb []float64, err error) {
	n := tri.N
	c := fbCall{sch: sch, env: env, tri: tri, xs: xs, k: k, coeffs: coeffs, hook: hook}
	if coeffs != nil {
		c.cmb = make([]float64, n*s.m)
	}
	if n == 0 {
		return c.cmb, nil
	}
	c.x0b = xs[0]
	if s.m > 1 {
		c.x0b = s.pack
	}
	if hook != nil {
		c.scratch = make([]float64, n)
	}
	s.fbCall = c
	sch.team.run(s)
	// Drop the caller's references before the state returns to its pool.
	s.fbCall, s.one[0] = fbCall{}, nil
	if env.canceled() {
		return nil, errCanceledRun
	}
	return c.cmb, nil
}

// checkPowers validates the arguments every MPK kernel shares.
func checkPowers(n, xLen, k int, coeffs []float64) error {
	if xLen != n {
		return fmt.Errorf("core: x0 length %d != n %d: %w", xLen, n, ErrDimension)
	}
	if k < 1 {
		return fmt.Errorf("core: power k=%d: %w", k, ErrBadPower)
	}
	if coeffs != nil && len(coeffs) != k+1 {
		return fmt.Errorf("core: coeffs length %d != k+1 = %d: %w", len(coeffs), k+1, ErrBadCoeffs)
	}
	return nil
}

// checkMulti validates the common batched-call arguments and returns
// the block width m.
func checkMulti(n int, xs [][]float64, k int, coeffs []float64) (int, error) {
	m := len(xs)
	if m < 1 {
		return 0, fmt.Errorf("core: batched MPK needs at least one vector: %w", ErrEmptyBlock)
	}
	for j, x := range xs {
		if len(x) != n {
			return 0, fmt.Errorf("core: vector %d length %d != n %d: %w", j, len(x), n, ErrDimension)
		}
	}
	return m, checkPowers(n, n, k, coeffs)
}

// fbPowers is the single-vector face of the driver: A^k x0 in a fresh
// slice, plus the combination when coeffs is non-nil.
func fbPowers(sch *colorSchedule, st *fbState, env *runEnv, tri *sparse.Triangular, x0 []float64, k int, btb bool, coeffs []float64, hook IterateFunc) (xk, combo []float64, err error) {
	n := tri.N
	if err := checkPowers(n, len(x0), k, coeffs); err != nil {
		return nil, nil, err
	}
	st.shape(n, 1, btb)
	st.one[0] = x0
	// At m = 1 the row-major combination block is the combination.
	combo, err = st.run(sch, env, tri, st.one[:], k, coeffs, hook)
	if err != nil {
		return nil, nil, err
	}
	return st.vector(k&1, make([]float64, n)), combo, nil
}

// fbPowersMulti is the batched face: A^k x_j for every vector in xs,
// plus combo_j = sum coeffs[i] * A^i * x_j when coeffs is non-nil.
func fbPowersMulti(sch *colorSchedule, st *fbState, env *runEnv, tri *sparse.Triangular, xs [][]float64, k int, btb bool, coeffs []float64) (xks, combos [][]float64, err error) {
	n := tri.N
	m, err := checkMulti(n, xs, k, coeffs)
	if err != nil {
		return nil, nil, err
	}
	st.shape(n, m, btb)
	cmb, err := st.run(sch, env, tri, xs, k, coeffs, nil)
	if err != nil {
		return nil, nil, err
	}
	xks = st.vectors(k&1, n)
	if cmb != nil {
		combos = sparse.UnpackVectors(cmb, n, m)
	}
	return xks, combos, nil
}

// serialSchedule is the one-color, one-inline-worker schedule of tri.
func serialSchedule(tri *sparse.Triangular) *colorSchedule {
	sch, _ := newColorSchedule(tri, nil, nil) // cannot fail without a pool
	return sch
}

// FBMPKSerial runs the forward-backward MPK on a split matrix:
// it computes A^k x0 and returns it in a fresh slice.
// btb selects the interleaved vector layout. coeffs, when non-nil,
// must have length k+1 and makes the kernel also accumulate
// combo = sum coeffs[i] * A^i * x0 (returned second, else nil).
// onIterate, when non-nil, observes a copy of each iterate.
func FBMPKSerial(tri *sparse.Triangular, x0 []float64, k int, btb bool, coeffs []float64, onIterate IterateFunc) (xk, combo []float64, err error) {
	return fbPowers(serialSchedule(tri), new(fbState), nil, tri, x0, k, btb, coeffs, onIterate)
}

// fbEngine is the forward-backward engine of a plan: the color schedule
// over the plan's pool (or the serial one), the layout, the triangle
// sizes its traffic accounting needs, and the row pointer of the
// execution-order matrix the split is of — all a value update needs to
// deal fresh values into L, D and U (that matrix itself is never built
// when the plan reordered).
type fbEngine struct {
	sch              *colorSchedule
	btb              bool
	nnzL, nnzU, nnzD uint64
	rowPtr           []int64
}

// splitOrdered returns the L+D+U split of a in ord's ordering (a's own
// when ord is nil), on r, and the row pointer of a in that ordering.
func splitOrdered(a *sparse.CSR, ord *reorder.ABMCResult, r sparse.Runner) (*sparse.Triangular, []int64, error) {
	if ord != nil {
		return ord.Perm.SplitSym(a, r)
	}
	tri, err := sparse.SplitPool(a, r)
	return tri, a.RowPtr, err
}

// newFBEngine splits a in ord's ordering (on runner) and schedules the
// sweeps: over ord's colors on pool, or serially.
func newFBEngine(a *sparse.CSR, ord *reorder.ABMCResult, btb bool, pool *parallel.Pool, runner sparse.Runner, stats *PlanStats) (*fbEngine, *sparse.Triangular, error) {
	start := time.Now()
	tri, rowPtr, err := splitOrdered(a, ord, runner)
	if err != nil {
		return nil, nil, err
	}
	stats.SplitTime = time.Since(start)
	sch, err := newColorSchedule(tri, ord, pool)
	if err != nil {
		return nil, nil, err
	}
	e := &fbEngine{sch: sch, btb: btb, nnzL: uint64(len(tri.L.Val)), nnzU: uint64(len(tri.U.Val)), rowPtr: rowPtr}
	// nnzD counts explicitly stored diagonal entries.
	e.nnzD = uint64(len(a.Val)) - e.nnzL - e.nnzU
	return e, tri, nil
}

func (e *fbEngine) revalue(cur *planEpoch, src []float64, slot []int64) *planEpoch {
	tri, fill := cur.tri.WithValues(e.rowPtr, src, slot)
	parallel.DealRows(e.rowPtr, fill)
	return &planEpoch{tri: tri}
}

func (e *fbEngine) powers(ws *workspace, env *runEnv, ep *planEpoch, in []float64, k int, coeffs []float64, hook IterateFunc) (xk, combo []float64, err error) {
	return fbPowers(e.sch, &ws.fb, env, ep.tri, in, k, e.btb, coeffs, hook)
}

func (e *fbEngine) powersMulti(ws *workspace, env *runEnv, ep *planEpoch, in [][]float64, k int, coeffs []float64) (xks, combos [][]float64, err error) {
	return fbPowersMulti(e.sch, &ws.fb, env, ep.tri, in, k, e.btb, coeffs)
}

// traffic is the matrix traffic of a k-power pipeline pass: the head
// reads U once, each of the ceil(k/2) forward sweeps reads L and D, each
// of the floor(k/2) backward sweeps reads U — the (k+1)/2 "reads of A"
// result of Section III-B, independent of the number of right-hand
// sides sharing the pass.
func (e *fbEngine) traffic(k, m int, _ bool) work {
	fwd := uint64(k+1) / 2
	bwd := uint64(k) / 2
	wk := work{sweeps: uint64(k), spmvs: uint64(k) * uint64(m)}
	wk.nnz[phaseHead], wk.nnz[phaseForward], wk.nnz[phaseBackward] = e.nnzU, fwd*(e.nnzL+e.nnzD), bwd*e.nnzU
	return wk
}
