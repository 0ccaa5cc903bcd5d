package core

import (
	"encoding/json"
	"sync/atomic"
	"time"

	"fbmpk/internal/events"
)

// Observability layer of the concurrent Plan engine. Every Plan owns a
// set of atomic counters updated on each execution: call counts per
// operation, pipeline sweeps, SpMV-equivalents served, nonzeros of the
// matrix streamed from memory (the quantity behind the paper's
// (k+1)/2 "reads of A" headline), and per-phase wait vs. compute time
// measured by the parallel workers. PlanMetrics is the immutable
// snapshot; it marshals to JSON, and its String is that encoding (what
// `solve -metrics` prints). The one-off build cost is not a counter:
// it stays in PlanStats.

// opKind enumerates the Plan entry points for per-operation counters.
type opKind int

const (
	opMPK opKind = iota
	opMPKAll
	opMPKMulti
	opSSpMV
	opSSpMVMulti
	opSSpMVComplex
	opSymGS
	numOps
)

var opNames = [numOps]string{
	opMPK:          "mpk",
	opMPKAll:       "mpk_all",
	opMPKMulti:     "mpk_multi",
	opSSpMV:        "sspmv",
	opSSpMVMulti:   "sspmv_multi",
	opSSpMVComplex: "sspmv_complex",
	opSymGS:        "symgs",
}

func (o opKind) String() string { return opNames[o] }

// phase enumerates the pipeline phases for the wait/compute breakdown.
type phase int

const (
	phaseHead phase = iota // head SpMV (tmp = U * x0) and vector init
	phaseForward
	phaseBackward
	phaseStandard // standard-engine SpMV sweeps
	phaseSymGS
	phaseLevel // level-blocked engine block passes
	numPhases
)

var phaseNames = [numPhases]string{
	phaseHead:     "head",
	phaseForward:  "forward",
	phaseBackward: "backward",
	phaseStandard: "standard",
	phaseSymGS:    "symgs",
	phaseLevel:    "level",
}

// planMetrics is the live atomic counter set owned by a Plan.
type planMetrics struct {
	calls    [numOps]atomic.Uint64
	rejected atomic.Uint64 // arrivals failed with ErrClosed
	canceled atomic.Uint64 // executions ended by context cancellation
	inflight atomic.Int64

	sweeps   atomic.Uint64            // pipeline sweeps (forward or backward passes)
	spmvs    atomic.Uint64            // SpMV-equivalents served (powers x vectors)
	phaseNnz [numPhases]atomic.Uint64 // matrix nonzeros read from memory, by streaming phase

	callNanos atomic.Int64 // wall time inside engine executions
	phaseWait [numPhases]atomic.Int64
	phaseComp [numPhases]atomic.Int64

	hist [numOps]latencyHist // per-op call duration distribution
}

// work is the analytic cost of one successful execution, accumulated
// into the counters by exec. nnz is split by the phase that streams it.
type work struct {
	sweeps uint64
	spmvs  uint64
	nnz    [numPhases]uint64
}

func (m *planMetrics) add(w work) {
	if w.sweeps != 0 {
		m.sweeps.Add(w.sweeps)
	}
	if w.spmvs != 0 {
		m.spmvs.Add(w.spmvs)
	}
	for ph, nnz := range w.nnz {
		if nnz != 0 {
			m.phaseNnz[ph].Add(nnz)
		}
	}
}

// PlanMetrics is a point-in-time snapshot of a plan's counters.
// ReadsOfA is NnzStreamed normalized to the matrix size — how many
// times A has been read end to end — and ReadsPerSpMV divides that by
// the SpMV-equivalents served: the paper's headline metric, ~1 for the
// standard engine, ~(k+1)/(2k) for single-vector FBMPK at power k, and
// ~(k+1)/(2km) for the m-vector batched pipeline.
type PlanMetrics struct {
	Calls     uint64            `json:"calls"`
	CallsByOp map[string]uint64 `json:"calls_by_op,omitempty"`
	Rejected  uint64            `json:"rejected"`
	Canceled  uint64            `json:"canceled"`
	InFlight  int64             `json:"in_flight"`

	Sweeps      uint64 `json:"sweeps"`
	SpMVs       uint64 `json:"spmvs"`
	NnzStreamed uint64 `json:"nnz_streamed"`
	MatrixNnz   uint64 `json:"matrix_nnz"`

	ReadsOfA     float64 `json:"reads_of_a"`
	ReadsPerSpMV float64 `json:"reads_of_a_per_spmv"`

	CallTime     time.Duration            `json:"call_time_ns"`
	WaitTime     time.Duration            `json:"wait_time_ns"`
	ComputeTime  time.Duration            `json:"compute_time_ns"`
	PhaseWait    map[string]time.Duration `json:"phase_wait_ns,omitempty"`
	PhaseCompute map[string]time.Duration `json:"phase_compute_ns,omitempty"`
	// NsPerNnz is PhaseCompute over the nonzeros streamed in that phase:
	// worker-nanoseconds per matrix entry, the "bandwidth-bound or not"
	// figure (12 matrix bytes per entry). Phases are clocked on pooled
	// plans only, so a serial plan reports none.
	NsPerNnz map[string]float64 `json:"ns_per_nnz,omitempty"`

	// Latency holds the per-op call duration histogram (log-linear,
	// 12.5% relative bucket error) with derived p50/p90/p99.
	Latency map[string]OpLatency `json:"latency_by_op,omitempty"`
}

// String renders the snapshot as JSON: the line `solve -metrics`
// prints after a solve.
func (m PlanMetrics) String() string {
	b, err := json.Marshal(m)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// snapshot materializes the counters. matrixNnz is the plan's nnz(A).
func (m *planMetrics) snapshot(matrixNnz uint64) PlanMetrics {
	s := PlanMetrics{
		Rejected:  m.rejected.Load(),
		Canceled:  m.canceled.Load(),
		InFlight:  m.inflight.Load(),
		Sweeps:    m.sweeps.Load(),
		SpMVs:     m.spmvs.Load(),
		MatrixNnz: matrixNnz,
		CallTime:  time.Duration(m.callNanos.Load()),
	}
	s.CallsByOp = make(map[string]uint64, numOps)
	for op := opKind(0); op < numOps; op++ {
		if c := m.calls[op].Load(); c > 0 {
			s.CallsByOp[op.String()] = c
			s.Calls += c
			if s.Latency == nil {
				s.Latency = make(map[string]OpLatency, numOps)
			}
			s.Latency[op.String()] = m.hist[op].snapshot()
		}
	}
	s.PhaseWait = make(map[string]time.Duration, numPhases)
	s.PhaseCompute = make(map[string]time.Duration, numPhases)
	s.NsPerNnz = make(map[string]float64, numPhases)
	for ph := phase(0); ph < numPhases; ph++ {
		w := time.Duration(m.phaseWait[ph].Load())
		c := time.Duration(m.phaseComp[ph].Load())
		nnz := m.phaseNnz[ph].Load()
		s.NnzStreamed += nnz
		if w > 0 {
			s.PhaseWait[phaseNames[ph]] = w
		}
		if c > 0 {
			s.PhaseCompute[phaseNames[ph]] = c
			if nnz > 0 {
				s.NsPerNnz[phaseNames[ph]] = float64(c) / float64(nnz)
			}
		}
		s.WaitTime += w
		s.ComputeTime += c
	}
	if matrixNnz > 0 {
		s.ReadsOfA = float64(s.NnzStreamed) / float64(matrixNnz)
	}
	if s.SpMVs > 0 {
		s.ReadsPerSpMV = s.ReadsOfA / float64(s.SpMVs)
	}
	return s
}

// cancelFlag is the monotonic cross-goroutine cancellation signal for
// one in-flight execution: set once by the context watcher, polled by
// the workers at color-barrier boundaries.
type cancelFlag struct{ v atomic.Bool }

func (f *cancelFlag) set() { f.v.Store(true) }

// canceled is nil-safe so uncancellable runs pay one nil check.
func (f *cancelFlag) canceled() bool { return f != nil && f.v.Load() }

// runEnv bundles the per-execution cancellation flag, the metrics
// sink, and the optional trace recorder threaded through the engine
// kernels. A nil *runEnv (the legacy exported entry points) disables
// all three. lane is the caller lane claimed for this execution (-1
// when untraced) and seq groups all of the execution's spans.
type runEnv struct {
	flag *cancelFlag
	met  *planMetrics
	rec  *events.Recorder
	lane int32
	seq  uint64
}

func (e *runEnv) canceled() bool {
	return e != nil && e.flag.canceled()
}

// workerClock returns the phase clock for pool worker id, nil when
// metrics are off — all phaseClock methods are nil-safe no-ops. When a
// trace recorder is attached the clock also emits span events on the
// worker's dedicated lane.
func (e *runEnv) workerClock(id int) *phaseClock {
	if e == nil || e.met == nil {
		return nil
	}
	c := &phaseClock{met: e.met, t: time.Now()}
	if e.rec != nil {
		if l := e.rec.WorkerLane(id); l >= 0 {
			c.rec, c.lane, c.seq = e.rec, l, e.seq
		}
	}
	return c
}

// serialClock returns a tracing-only clock for a kernel running inline
// on the calling goroutine, or nil when no recorder is attached — so
// the untraced serial hot path allocates nothing and never reads the
// clock. Spans land on the execution's caller lane.
func (e *runEnv) serialClock() *phaseClock {
	if e == nil || e.rec == nil || e.lane < 0 {
		return nil
	}
	return &phaseClock{rec: e.rec, lane: e.lane, seq: e.seq, t: time.Now()}
}

// phaseClock accumulates one worker's wait vs. compute time per phase
// locally (no sharing, no atomics on the hot path) and flushes into
// the plan counters once when the worker finishes. Usage: endCompute
// after a kernel section, endWait after a barrier crossing; the clock
// treats the span since the previous mark as that category. With a
// recorder attached each mark additionally emits a span event
// (compute section or barrier wait) on the clock's lane, and
// beginSweep/endSweep bracket whole pipeline sweeps.
type phaseClock struct {
	met        *planMetrics
	rec        *events.Recorder
	lane       int32
	seq        uint64
	t          time.Time
	sweepStart time.Time
	wait       [numPhases]int64
	comp       [numPhases]int64
}

func (c *phaseClock) endCompute(ph phase, color int32) {
	if c == nil {
		return
	}
	now := time.Now()
	if c.met != nil {
		c.comp[ph] += now.Sub(c.t).Nanoseconds()
	}
	if c.rec != nil {
		c.rec.Span(c.lane, events.KindCompute, phaseNames[ph], color, c.seq, c.t, now)
	}
	c.t = now
}

func (c *phaseClock) endWait(ph phase, color int32) {
	if c == nil {
		return
	}
	now := time.Now()
	if c.met != nil {
		c.wait[ph] += now.Sub(c.t).Nanoseconds()
	}
	if c.rec != nil {
		c.rec.Span(c.lane, events.KindBarrier, phaseNames[ph], color, c.seq, c.t, now)
	}
	c.t = now
}

// beginSweep marks the start of one pipeline sweep (the span until the
// matching endSweep) by copying the current mark: no clock read.
func (c *phaseClock) beginSweep() {
	if c == nil {
		return
	}
	c.sweepStart = c.t
}

// endSweep emits the sweep span using the time of the last mark as the
// sweep end (the kernels mark a compute section or barrier crossing
// right before calling it, so no extra time.Now is needed). arg is the power (or
// sweep index) the sweep produced.
func (c *phaseClock) endSweep(ph phase, arg int32) {
	if c == nil {
		return
	}
	if c.rec != nil {
		c.rec.Span(c.lane, events.KindSweep, phaseNames[ph], arg, c.seq, c.sweepStart, c.t)
	}
}

func (c *phaseClock) flush() {
	if c == nil || c.met == nil {
		return
	}
	for ph := phase(0); ph < numPhases; ph++ {
		if c.wait[ph] != 0 {
			c.met.phaseWait[ph].Add(c.wait[ph])
		}
		if c.comp[ph] != 0 {
			c.met.phaseComp[ph].Add(c.comp[ph])
		}
	}
}
