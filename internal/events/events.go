// Package events is the execution-tracing substrate of the Plan
// engine: a bounded, lock-free-per-lane ring-buffer recorder for the
// spans a pipelined MPK execution produces — call start/end, each
// forward/backward sweep, every color-barrier crossing, and the
// per-worker compute sections between them.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. A plan holds a nil *Recorder until one
//     is attached; every producer guards with a nil/negative-lane
//     check, the same pattern the per-phase clocks use. No
//     allocation, no atomic, no time.Now on the disabled path.
//  2. No locks on the hot path when enabled. Each writer owns one
//     lane (pool workers map to fixed lanes; calling goroutines
//     acquire a caller lane from a bitmask free list for the duration
//     of one execution), so recording is a plain ring write plus one
//     atomic position store.
//  3. Bounded memory. Each lane is a fixed ring of PerLane events;
//     old events are overwritten, never grown. A saturated recorder
//     keeps the newest window, which is what a tail-latency
//     investigation wants.
//
// LaneEvents and the Chrome trace export may run concurrently with
// writers: they read each lane's newest window. Events overwritten
// mid-read can tear; the recorder is a debug surface, not an audit
// log, and quiescent captures (after calls complete) are exact.
package events

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Kind categorizes a span; it becomes the "cat" field of the Chrome
// trace export.
type Kind uint8

const (
	// KindCall spans one whole engine execution (one Plan entry-point
	// call), recorded on the caller lane.
	KindCall Kind = iota
	// KindSweep spans one forward or backward pipeline sweep (one
	// power), per worker.
	KindSweep
	// KindCompute spans one worker's kernel section within one color.
	KindCompute
	// KindBarrier spans one worker's wait at a color barrier.
	KindBarrier
	numKinds
)

var kindNames = [numKinds]string{
	KindCall:    "call",
	KindSweep:   "sweep",
	KindCompute: "compute",
	KindBarrier: "barrier",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "event"
}

// Event is one recorded span. The struct is fixed-size and
// pointer-free apart from the static Name label and the optional
// Trace tag, so recording never allocates.
type Event struct {
	Start time.Duration // offset from the recorder epoch
	Dur   time.Duration
	Kind  Kind
	Lane  int32  // writer lane (chrome tid)
	Arg   int32  // color index, power, or -1
	Seq   uint64 // call sequence number grouping one execution's spans
	Name  string // static span label ("mpk", "forward", ...)
	Trace string // request trace ID, "" for spans outside a traced request
}

// Config sizes a Recorder.
type Config struct {
	// PerLane is the ring capacity of each lane in events
	// (default 8192).
	PerLane int
	// Callers is the number of caller lanes — concurrent executions
	// that can trace their call spans at once (default 8, max 64).
	// Executions beyond the limit run untraced.
	Callers int
	// Workers is the number of worker lanes (default GOMAXPROCS).
	// Pool workers with ids beyond the limit record nothing.
	Workers int
}

const (
	defaultPerLane = 8192
	maxCallerLanes = 64
)

// lane is a single-writer event ring. pos counts events ever written;
// the ring holds the newest min(pos, len(buf)) of them. Only the
// owning writer stores pos, so no CAS is needed; the atomic load/store
// pair gives snapshot readers a consistent publication order. The pad
// keeps two lanes' write positions off one cache line.
type lane struct {
	pos atomic.Uint64
	_   [56]byte
	buf []Event
}

func (l *lane) record(ev Event) {
	p := l.pos.Load()
	l.buf[p%uint64(len(l.buf))] = ev
	l.pos.Store(p + 1)
}

// Recorder captures execution events into per-lane rings. The zero
// value is not usable; a nil *Recorder is the disabled state and every
// method on it is safe to call.
type Recorder struct {
	epoch   time.Time
	perLane int
	callers int
	lanes   []lane // caller lanes first, then worker lanes
	free    atomic.Uint64
	seq     atomic.Uint64
}

// NewRecorder builds a recorder; zero-value Config selects the
// defaults.
func NewRecorder(cfg Config) *Recorder {
	if cfg.PerLane <= 0 {
		cfg.PerLane = defaultPerLane
	}
	if cfg.Callers <= 0 {
		cfg.Callers = 8
	}
	if cfg.Callers > maxCallerLanes {
		cfg.Callers = maxCallerLanes
	}
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	r := &Recorder{
		epoch:   time.Now(),
		perLane: cfg.PerLane,
		callers: cfg.Callers,
		lanes:   make([]lane, cfg.Callers+cfg.Workers),
	}
	for i := range r.lanes {
		r.lanes[i].buf = make([]Event, cfg.PerLane)
	}
	if cfg.Callers == 64 {
		r.free.Store(^uint64(0))
	} else {
		r.free.Store(1<<uint(cfg.Callers) - 1)
	}
	return r
}

// AcquireLane claims a caller lane and a fresh call sequence number
// for one execution. It returns lane -1 when the recorder is nil or
// every caller lane is busy (the execution then runs untraced).
// Release the lane with ReleaseLane when the execution ends.
func (r *Recorder) AcquireLane() (laneID int32, seq uint64) {
	if r == nil {
		return -1, 0
	}
	for {
		m := r.free.Load()
		if m == 0 {
			return -1, 0
		}
		i := bits.TrailingZeros64(m)
		if r.free.CompareAndSwap(m, m&^(1<<uint(i))) {
			return int32(i), r.seq.Add(1)
		}
	}
}

// ReleaseLane returns a caller lane claimed by AcquireLane. Negative
// ids (untraced executions) are ignored.
func (r *Recorder) ReleaseLane(laneID int32) {
	if r == nil || laneID < 0 {
		return
	}
	for {
		m := r.free.Load()
		if r.free.CompareAndSwap(m, m|1<<uint(laneID)) {
			return
		}
	}
}

// WorkerLane maps a pool worker id to its lane, or -1 when the id is
// beyond the recorder's worker lanes (the worker then records
// nothing).
func (r *Recorder) WorkerLane(id int) int32 {
	if r == nil || id < 0 || r.callers+id >= len(r.lanes) {
		return -1
	}
	return int32(r.callers + id)
}

// Span records one completed span on the given lane. The start and
// end stamps are wall-clock times (the recorder translates them to
// epoch offsets); spans recorded with a negative lane are dropped.
// Safe for one concurrent writer per lane.
func (r *Recorder) Span(laneID int32, kind Kind, name string, arg int32, seq uint64, start, end time.Time) {
	r.SpanTagged(laneID, kind, name, arg, seq, start, end, "")
}

// SpanTagged is Span carrying a request trace ID, so spans a traced
// serving request produced are recoverable from the lane rings by ID.
func (r *Recorder) SpanTagged(laneID int32, kind Kind, name string, arg int32, seq uint64, start, end time.Time, trace string) {
	if r == nil || laneID < 0 {
		return
	}
	r.lanes[laneID].record(Event{
		Start: start.Sub(r.epoch),
		Dur:   end.Sub(start),
		Kind:  kind,
		Lane:  laneID,
		Arg:   arg,
		Seq:   seq,
		Name:  name,
		Trace: trace,
	})
}

// Lanes returns the total lane count (caller lanes + worker lanes),
// 0 for a nil recorder.
func (r *Recorder) Lanes() int {
	if r == nil {
		return 0
	}
	return len(r.lanes)
}

// Len reports the number of events currently retained across all
// lanes.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.lanes {
		p := r.lanes[i].pos.Load()
		if p > uint64(r.perLane) {
			p = uint64(r.perLane)
		}
		n += int(p)
	}
	return n
}

// LaneEvents copies the retained events of one lane in record order
// (oldest first).
func (r *Recorder) LaneEvents(laneID int) []Event {
	if r == nil || laneID < 0 || laneID >= len(r.lanes) {
		return nil
	}
	return appendLane(nil, &r.lanes[laneID])
}

func appendLane(dst []Event, l *lane) []Event {
	p := l.pos.Load()
	size := uint64(len(l.buf))
	n := p
	if n > size {
		n = size
	}
	for k := p - n; k < p; k++ {
		dst = append(dst, l.buf[k%size])
	}
	return dst
}
