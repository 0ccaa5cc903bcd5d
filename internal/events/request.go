package events

import (
	"context"
	"sync"
	"time"
)

// Request-scoped timelines: the per-request counterpart of the
// per-plan lane recorder. A serving front end creates one Timeline per
// request, stamps it with the request's trace ID, and threads it down
// through context; every layer a request crosses (admission gate,
// registry acquire/build, epoch pin, kernel execution, response
// encode) appends a named phase. The result is a bounded, allocation-
// light record of where one request's wall time went — exactly the
// attribution a flight recorder or a Chrome trace row needs.
//
// The same nil-is-disabled discipline as the Recorder applies: a nil
// *Timeline is the detached state, every method on it is a no-op, and
// TimelineFromContext returns nil when no timeline was installed, so
// library callers that never touch the serving stack pay one context
// lookup and nothing else.

// Phase is one named interval of a request timeline. Offsets are
// relative to the timeline's start, so a marshalled timeline is
// self-contained without absolute clocks.
type Phase struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	// Arg carries a phase-specific integer (the pinned value-epoch
	// sequence number, a retry count, ...); 0 when unused.
	Arg int64 `json:"arg,omitempty"`
}

// End returns the phase's end offset from the timeline start.
func (p Phase) End() time.Duration { return p.Start + p.Dur }

// maxTimelinePhases bounds one timeline's memory: a request that
// somehow crosses more layers than this keeps its earliest phases and
// discards the rest, mirroring the bounded-ring stance of the
// lane recorder.
const maxTimelinePhases = 48

// Timeline is one request's phase record. Create it with NewTimeline,
// install it with ContextWithTimeline, and recover phases with
// Snapshot. Methods are safe for concurrent use and safe on a nil
// receiver (the detached state).
type Timeline struct {
	trace string
	start time.Time

	mu     sync.Mutex
	phases []Phase
}

// NewTimeline starts a timeline for one request. traceID is the
// request's correlation ID (a W3C trace-id in the serving stack, but
// any non-empty string works); start anchors the phase offsets.
func NewTimeline(traceID string, start time.Time) *Timeline {
	return &Timeline{trace: traceID, start: start}
}

// TraceID returns the timeline's correlation ID, "" for nil.
func (t *Timeline) TraceID() string {
	if t == nil {
		return ""
	}
	return t.trace
}

// StartTime returns the timeline's anchor, the zero time for nil.
func (t *Timeline) StartTime() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Phase records a completed interval.
func (t *Timeline) Phase(name string, start, end time.Time) {
	t.PhaseArg(name, start, end, 0)
}

// PhaseArg records a completed interval carrying a phase argument.
func (t *Timeline) PhaseArg(name string, start, end time.Time, arg int64) {
	if t == nil {
		return
	}
	t.append(Phase{
		Name:  name,
		Start: start.Sub(t.start),
		Dur:   end.Sub(start),
		Arg:   arg,
	})
}

// Mark records an instantaneous event (a zero-duration phase), e.g.
// the value epoch pinned at admission.
func (t *Timeline) Mark(name string, at time.Time, arg int64) {
	if t == nil {
		return
	}
	t.append(Phase{Name: name, Start: at.Sub(t.start), Arg: arg})
}

func (t *Timeline) append(p Phase) {
	t.mu.Lock()
	if len(t.phases) < maxTimelinePhases {
		t.phases = append(t.phases, p)
	}
	t.mu.Unlock()
}

// Snapshot copies the recorded phases in append order.
func (t *Timeline) Snapshot() []Phase {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Phase, len(t.phases))
	copy(out, t.phases)
	t.mu.Unlock()
	return out
}

// timelineKey is the context key timelines travel under.
type timelineKey struct{}

// ContextWithTimeline installs a request timeline in ctx. A nil
// timeline returns ctx unchanged.
func ContextWithTimeline(ctx context.Context, t *Timeline) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, timelineKey{}, t)
}

// TimelineFromContext recovers the request timeline installed by
// ContextWithTimeline, nil when absent (including a nil ctx). All
// Timeline methods accept the nil result, so callers record phases
// unconditionally.
func TimelineFromContext(ctx context.Context) *Timeline {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(timelineKey{}).(*Timeline)
	return t
}
