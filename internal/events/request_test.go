package events

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTimelineNilSafe(t *testing.T) {
	var tl *Timeline
	now := time.Now()
	tl.Phase("x", now, now)
	tl.PhaseArg("y", now, now, 1)
	tl.Mark("z", now, 2)
	if got := tl.TraceID(); got != "" {
		t.Fatalf("nil TraceID = %q", got)
	}
	if !tl.StartTime().IsZero() {
		t.Fatal("nil StartTime not zero")
	}
	if ph := tl.Snapshot(); ph != nil {
		t.Fatalf("nil Snapshot = %v", ph)
	}
}

func TestTimelinePhasesRelativeToStart(t *testing.T) {
	start := time.Unix(100, 0)
	tl := NewTimeline("abc123", start)
	tl.Phase("decode", start.Add(time.Millisecond), start.Add(3*time.Millisecond))
	tl.Mark("epoch", start.Add(4*time.Millisecond), 7)
	ph := tl.Snapshot()
	if len(ph) != 2 {
		t.Fatalf("got %d phases, want 2", len(ph))
	}
	if ph[0].Name != "decode" || ph[0].Start != time.Millisecond || ph[0].Dur != 2*time.Millisecond {
		t.Fatalf("decode phase wrong: %+v", ph[0])
	}
	if ph[1].Name != "epoch" || ph[1].Dur != 0 || ph[1].Arg != 7 {
		t.Fatalf("mark wrong: %+v", ph[1])
	}
	if end := ph[0].End(); end != 3*time.Millisecond {
		t.Fatalf("End() = %v, want 3ms", end)
	}
	// Snapshot returns a copy: mutating it must not touch the timeline.
	ph[0].Name = "clobbered"
	if tl.Snapshot()[0].Name != "decode" {
		t.Fatal("Snapshot aliases internal state")
	}
}

func TestTimelineBounded(t *testing.T) {
	start := time.Now()
	tl := NewTimeline("t", start)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*maxTimelinePhases; i++ {
				tl.Phase("p", start, start.Add(time.Microsecond))
			}
		}()
	}
	wg.Wait()
	if n := len(tl.Snapshot()); n != maxTimelinePhases {
		t.Fatalf("retained %d phases, want cap %d", n, maxTimelinePhases)
	}
}

func TestTimelineContextRoundTrip(t *testing.T) {
	tl := NewTimeline("rt", time.Now())
	ctx := ContextWithTimeline(context.Background(), tl)
	if got := TimelineFromContext(ctx); got != tl {
		t.Fatal("timeline lost in context round trip")
	}
	if got := TimelineFromContext(context.Background()); got != nil {
		t.Fatalf("empty context yields %v", got)
	}
	// nil timeline installs nothing.
	base := context.Background()
	if ctx2 := ContextWithTimeline(base, nil); ctx2 != base {
		t.Fatal("nil timeline changed the context")
	}
}

// TestSpanTaggedTraceInChromeExport pins that a recorder span tagged
// with a trace ID carries it into the Chrome export args.
func TestSpanTaggedTraceInChromeExport(t *testing.T) {
	r := NewRecorder(Config{PerLane: 16, Callers: 1})
	lane, _ := r.AcquireLane()
	defer r.ReleaseLane(lane)
	now := time.Now()
	r.SpanTagged(lane, KindCall, "mpk", -1, 1, now, now.Add(time.Millisecond), "deadbeef")
	r.Span(lane, KindCall, "mpk", -1, 2, now, now.Add(time.Millisecond))
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"trace":"deadbeef"`) {
		t.Fatalf("tagged span lost its trace ID:\n%s", out)
	}
	if strings.Count(out, `"trace":`) != 1 {
		t.Fatalf("untagged span grew a trace arg:\n%s", out)
	}
}
