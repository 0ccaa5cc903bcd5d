package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"fbmpk"
)

// span is one benchmark-owned interval around a call into a layer. The
// spans of one operation (one MPK call, one request) share Op; Parent
// is the ID of the span that caused this one, -1 at the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the spans-off state every end-to-end measurement runs in: timed()
// still measures, it just records nothing.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere — the
// phases a request timeline reports from inside the program.
func (t *tracer) record(name string, parent int, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// timeline installs a request timeline in ctx when tracing, so the
// phases the program reports from inside a call can become child spans
// (adopt). With tracing off it returns ctx unchanged and a nil timeline.
func (t *tracer) timeline(ctx context.Context) (context.Context, *fbmpk.RequestTimeline) {
	if t == nil {
		return ctx, nil
	}
	tl := fbmpk.NewRequestTimeline("benchmark", time.Now())
	return fbmpk.ContextWithTimeline(ctx, tl), tl
}

// adopt records the named phases of tl as children of parent.
func (t *tracer) adopt(tl *fbmpk.RequestTimeline, parent int, op int64, names ...string) {
	if t == nil {
		return
	}
	for _, ph := range tl.Snapshot() {
		for _, name := range names {
			if ph.Name == name {
				start := tl.StartTime().Add(ph.Start)
				t.record(ph.Name, parent, op, start, start.Add(ph.Dur))
			}
		}
	}
}

// timed runs f inside a span and returns its duration in milliseconds.
func (t *tracer) timed(name string, parent int, op int64, f func()) float64 {
	id := t.begin(name, parent, op)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return ms(d)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// selfTimes derives each span's self time — its duration minus the
// part of that interval its direct children cover (overlapping
// children are merged first, so concurrent children are not counted
// twice) — and returns the samples grouped by span name, in ms.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// durations groups span durations by name, in ms.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
