package fbmpk

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"fbmpk/internal/events"
	"fbmpk/internal/expo"
)

// Observability surface: execution tracing, request timelines and the
// debug HTTP handler (Prometheus exposition, trace export, pprof). See
// the README "Observability" section for a walkthrough.

// TraceRecorder captures execution spans (calls, pipeline sweeps,
// per-worker compute sections, color-barrier waits) into bounded
// per-lane ring buffers. Attach one to a plan with Plan.StartTrace;
// export it with WriteTrace or scrape it from DebugHandler's /trace
// endpoint. A nil *TraceRecorder is the disabled state: every method
// is safe and free.
type TraceRecorder = events.Recorder

// TraceConfig sizes a TraceRecorder: ring capacity per lane, number of
// concurrent traced callers, and worker lanes. The zero value selects
// the defaults (8192 events/lane, 8 callers, no workers).
type TraceConfig = events.Config

// TraceEvent is one recorded span of a trace snapshot.
type TraceEvent = events.Event

// NewTraceRecorder builds a trace recorder. Size Workers to the plan's
// thread count (Plan.Workers) so per-worker spans are captured; caller
// lanes bound how many concurrent executions trace at once.
func NewTraceRecorder(cfg TraceConfig) *TraceRecorder {
	return events.NewRecorder(cfg)
}

// WriteTrace exports the recorders' retained spans as one Chrome
// trace-event JSON document, loadable at ui.perfetto.dev or
// chrome://tracing. Recorder i becomes process i+1; nil recorders are
// skipped.
func WriteTrace(w io.Writer, recs ...*TraceRecorder) error {
	return events.WriteChromeTrace(w, recs...)
}

// RequestTimeline is a per-request phase record: a serving layer
// creates one per request (stamped with the request's trace ID),
// installs it with ContextWithTimeline, and every layer the request
// crosses — the registry's fingerprint/build/coalesced-wait path and
// the plan's admission gate, epoch pin, and kernel execution —
// appends a named phase. A nil *RequestTimeline is the detached
// state; every method on it is safe and free. This is the mechanism
// behind fbmpkd's /v1/debug/requests flight recorder, exposed here so
// library embedders get the same per-request attribution.
type RequestTimeline = events.Timeline

// RequestPhase is one named interval of a RequestTimeline, offsets
// relative to the timeline's start.
type RequestPhase = events.Phase

// NewRequestTimeline starts a request timeline anchored at start.
// traceID is the correlation key (fbmpkd uses the W3C trace-id; any
// non-empty string works).
func NewRequestTimeline(traceID string, start time.Time) *RequestTimeline {
	return events.NewTimeline(traceID, start)
}

// ContextWithTimeline installs a request timeline in ctx; the *Ctx
// entry points and Registry.AcquireCtx/UpdateValuesCtx record their
// phases into it. A nil timeline returns ctx unchanged.
func ContextWithTimeline(ctx context.Context, t *RequestTimeline) context.Context {
	return events.ContextWithTimeline(ctx, t)
}

// TimelineFromContext recovers the installed request timeline, nil
// when absent.
func TimelineFromContext(ctx context.Context) *RequestTimeline {
	return events.TimelineFromContext(ctx)
}

// DebugHandler returns an http.Handler exposing the plans' runtime
// state:
//
//	/metrics      Prometheus/OpenMetrics text (counters, traffic
//	              ratios, per-op latency histograms)
//	/trace        Chrome trace-event JSON of the currently attached
//	              trace recorders (empty document when none)
//	/debug/pprof  Go profiling endpoints
//
// Plans are labeled plan0..planN in /metrics, in argument order. The
// handler holds the plan pointers only; snapshots are taken per
// request, so it is safe to serve concurrently with executions and
// after Close (the counters simply freeze).
func DebugHandler(plan *Plan, more ...*Plan) http.Handler {
	return debugMux(append([]*Plan{plan}, more...), nil)
}

// RegistryDebugHandler is DebugHandler for a registry-backed serving
// process: /metrics additionally exposes the plan cache's counters
// (fbmpk_cache_hits_total, _misses_total, _coalesced_total,
// _evictions_total, occupancy and cumulative build time) alongside
// the per-plan families. Pass the long-lived plans worth labeling;
// the registry itself is scraped as registry="registry".
func RegistryDebugHandler(reg *Registry, plans ...*Plan) http.Handler {
	return debugMux(plans, reg)
}

func debugMux(plans []*Plan, reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snaps := make([]expo.PlanSnapshot, 0, len(plans))
		for i, p := range plans {
			if p == nil {
				continue
			}
			snaps = append(snaps, expo.PlanSnapshot{
				Name:    fmt.Sprintf("plan%d", i),
				Metrics: p.Metrics(),
				Stats:   p.Stats(),
			})
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := expo.WriteMetrics(w, snaps...); err != nil {
			// Headers are already out; nothing to do but drop the conn.
			return
		}
		if reg != nil {
			_ = expo.WriteRegistryMetrics(w, expo.RegistrySnapshot{
				Name: "registry", Stats: reg.Stats(),
			})
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		recs := make([]*TraceRecorder, 0, len(plans))
		for _, p := range plans {
			if p == nil {
				continue
			}
			recs = append(recs, p.TraceRecorder())
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="fbmpk-trace.json"`)
		_ = events.WriteChromeTrace(w, recs...)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "fbmpk debug surface")
		fmt.Fprintln(w, "  /metrics      Prometheus text exposition")
		fmt.Fprintln(w, "  /trace        Chrome trace-event JSON (Perfetto)")
		fmt.Fprintln(w, "  /debug/pprof  profiling")
	})
	return mux
}
