package serve

import (
	"context"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fbmpk/internal/core"
	"fbmpk/internal/events"
	"fbmpk/internal/expo"
)

// Request-scoped observability: every upload, update and operation
// request runs inside a reqScope that carries its W3C trace context,
// its phase timeline (threaded down through context into the registry
// and the plan), and settles — exactly once — the per-(op, outcome)
// counters and latency histograms, the flight recorder, and the
// structured access log. Each fact has one home: aggregates go to
// /metrics, a request's trace ID and phases to the flight recorder and
// the access log.

// outcomeOK is the outcome class of a 200 answer; error outcomes reuse
// the ErrorResponse kind strings (KindOverload, KindDeadline, ...).
const outcomeOK = "ok"

// obs is the daemon's request-observability state.
type obs struct {
	log    *slog.Logger // nil = access logging disabled
	flight *flightRecorder

	mu    sync.RWMutex
	hists map[string]*core.LatencyHist // "op|outcome"

	// disabled strips per-request observability entirely (no trace
	// IDs, no timelines, no histograms). Reserved for the overhead
	// gate test, which flips it between blocks of requests to one daemon
	// to compare the instrumented path against the stripped one.
	disabled atomic.Bool
}

func newObs(log *slog.Logger) *obs {
	return &obs{
		log:    log,
		flight: newFlightRecorder(flightCap),
		hists:  make(map[string]*core.LatencyHist),
	}
}

// hist returns the live histogram for one (op, outcome) pair,
// creating it on first use.
func (o *obs) hist(op, outcome string) *core.LatencyHist {
	key := op + "|" + outcome
	o.mu.RLock()
	h := o.hists[key]
	o.mu.RUnlock()
	if h != nil {
		return h
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if h = o.hists[key]; h == nil {
		h = &core.LatencyHist{}
		o.hists[key] = h
	}
	return h
}

// snapshotHists materializes every (op, outcome) histogram for the
// /metrics exposition.
func (o *obs) snapshotHists() []expo.DaemonOpLatency {
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make([]expo.DaemonOpLatency, 0, len(o.hists))
	for key, h := range o.hists {
		op, outcome, _ := cutKey(key)
		out = append(out, expo.DaemonOpLatency{Op: op, Outcome: outcome, Latency: h.Snapshot()})
	}
	return out
}

func cutKey(key string) (op, outcome string, ok bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == '|' {
			return key[:i], key[i+1:], true
		}
	}
	return key, "", false
}

// reqScope is one request's observability context, created by
// Server.begin and settled exactly once by ok/fail/finish.
type reqScope struct {
	s      *Server
	op     string
	method string
	path   string
	start  time.Time
	tc     TraceContext
	tl     *events.Timeline // nil when observability is disabled
	done   bool
}

// begin opens a request scope: it adopts the caller's traceparent
// trace ID (or restarts the trace on a missing/malformed header),
// generates the daemon's own span ID, echoes the resulting
// traceparent on the response, and starts the phase timeline.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, op string) *reqScope {
	start := time.Now()
	q := &reqScope{s: s, op: op, method: r.Method, path: r.URL.Path, start: start}
	if s.obs.disabled.Load() {
		return q
	}
	tc, err := ParseTraceparent(r.Header.Get(TraceparentHeader))
	if err != nil {
		tc = NewTraceContext()
	} else {
		tc.SpanID = randomSpanID()
	}
	q.tc = tc
	q.tl = events.NewTimeline(tc.TraceIDString(), start)
	w.Header().Set("Traceparent", tc.String())
	return q
}

// traceID returns the request's trace ID, "" when disabled.
func (q *reqScope) traceID() string { return q.tl.TraceID() }

// ctx derives the request context every downstream layer sees: the
// HTTP request context with the phase timeline installed.
func (q *reqScope) ctx(r *http.Request) context.Context {
	return events.ContextWithTimeline(r.Context(), q.tl)
}

// phase closes a named interval opened at start.
func (q *reqScope) phase(name string, start time.Time) {
	q.tl.Phase(name, start, time.Now())
}

// ok encodes a 200 body and settles the scope.
func (q *reqScope) ok(w http.ResponseWriter, v any) {
	encStart := time.Now()
	writeJSON(w, http.StatusOK, v)
	q.phase("encode", encStart)
	q.finish(http.StatusOK, outcomeOK)
}

// fail encodes an ErrorResponse carrying the trace ID and settles the
// scope under the kind as its outcome class.
func (q *reqScope) fail(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, ErrorResponse{APIVersion: APIVersion, Error: msg, Kind: kind, TraceID: q.traceID()})
	q.finish(status, kind)
}

// shed fails with 429, deriving Retry-After from the observed p50
// service time of this op's successful requests (ceiling of whole
// seconds, floor 1s) — an overloaded daemon quotes its own service
// time back instead of a constant.
func (q *reqScope) shed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(q.s.retryAfterSecs(q.op)))
	q.fail(w, http.StatusTooManyRequests, KindOverload, msg)
}

func (s *Server) retryAfterSecs(op string) int {
	secs := int(math.Ceil(s.obs.hist(op, outcomeOK).Snapshot().P50.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// finish settles the scope: outcome counter, latency histogram, flight
// recorder, access log. Idempotent so belt-and-braces double
// settlement cannot double count.
func (q *reqScope) finish(status int, outcome string) {
	if q.done {
		return
	}
	q.done = true
	q.s.count(q.op, outcome)
	if q.tl == nil {
		return
	}
	total := time.Since(q.start)
	trace := q.tc.TraceIDString()
	o := q.s.obs
	o.hist(q.op, outcome).Observe(total)
	o.flight.observe(FlightEntry{
		TraceID: trace, Op: q.op, Outcome: outcome, Status: status,
		Start: q.start, Total: total, Phases: q.tl.Snapshot(),
	})
	if o.log != nil {
		lvl := slog.LevelInfo
		if status >= 400 {
			lvl = slog.LevelWarn
		}
		o.log.LogAttrs(context.Background(), lvl, "request",
			slog.String("op", q.op),
			slog.String("method", q.method),
			slog.String("path", q.path),
			slog.Int("status", status),
			slog.String("outcome", outcome),
			slog.Duration("duration", total),
			slog.String("trace_id", trace))
	}
}
