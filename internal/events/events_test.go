package events

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafeAndFree(t *testing.T) {
	var r *Recorder
	lane, seq := r.AcquireLane()
	if lane != -1 || seq != 0 {
		t.Fatalf("nil AcquireLane = (%d, %d), want (-1, 0)", lane, seq)
	}
	r.ReleaseLane(lane)
	r.Span(0, KindCall, "x", 0, 0, time.Now(), time.Now())
	if r.WorkerLane(0) != -1 {
		t.Fatal("nil WorkerLane != -1")
	}
	if r.LaneEvents(0) != nil || r.Len() != 0 || r.Lanes() != 0 {
		t.Fatal("nil recorder reports state")
	}

	// The disabled path must not allocate: this is the guard behind
	// the "near-zero cost when tracing is off" contract.
	start := time.Now()
	allocs := testing.AllocsPerRun(100, func() {
		l, s := r.AcquireLane()
		r.Span(l, KindSweep, "forward", 1, s, start, start)
		r.ReleaseLane(l)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder path allocates %v per run, want 0", allocs)
	}
}

func TestRecordingIsAllocationFree(t *testing.T) {
	r := NewRecorder(Config{PerLane: 64, Callers: 2, Workers: 2})
	start := time.Now()
	end := start.Add(time.Microsecond)
	allocs := testing.AllocsPerRun(100, func() {
		l, s := r.AcquireLane()
		r.Span(l, KindCall, "mpk", -1, s, start, end)
		r.Span(r.WorkerLane(0), KindBarrier, "forward", 3, s, start, end)
		r.ReleaseLane(l)
	})
	if allocs != 0 {
		t.Fatalf("enabled recording allocates %v per run, want 0", allocs)
	}
}

func TestRingOverwriteBoundsMemory(t *testing.T) {
	const perLane = 16
	r := NewRecorder(Config{PerLane: perLane, Callers: 1, Workers: 1})
	lane := r.WorkerLane(0)
	start := time.Now()
	const total = 3 * perLane
	for i := 0; i < total; i++ {
		s := start.Add(time.Duration(i) * time.Microsecond)
		r.Span(lane, KindCompute, "forward", int32(i), 1, s, s.Add(time.Microsecond))
	}
	evs := r.LaneEvents(int(lane))
	if len(evs) != perLane {
		t.Fatalf("retained %d events, want ring cap %d", len(evs), perLane)
	}
	// The ring keeps the newest window, in record order.
	for i, ev := range evs {
		if want := int32(total - perLane + i); ev.Arg != want {
			t.Fatalf("event %d has arg %d, want %d (newest window)", i, ev.Arg, want)
		}
	}
	if r.Len() != perLane {
		t.Fatalf("Len = %d, want %d", r.Len(), perLane)
	}
}

func TestCallerLaneExhaustion(t *testing.T) {
	r := NewRecorder(Config{PerLane: 8, Callers: 2, Workers: 0})
	l0, s0 := r.AcquireLane()
	l1, s1 := r.AcquireLane()
	if l0 < 0 || l1 < 0 || l0 == l1 {
		t.Fatalf("lanes = %d, %d, want two distinct", l0, l1)
	}
	if s0 == s1 {
		t.Fatalf("sequence numbers collide: %d", s0)
	}
	l2, s2 := r.AcquireLane()
	if l2 != -1 {
		t.Fatalf("third acquire = %d, want -1 (exhausted)", l2)
	}
	// The third execution runs untraced: its call span is not recorded.
	now := time.Now()
	r.Span(l0, KindCall, "mpk", -1, s0, now, now)
	r.Span(l1, KindCall, "mpk", -1, s1, now, now)
	r.Span(l2, KindCall, "mpk", -1, s2, now, now)
	if r.Len() != 2 {
		t.Fatalf("recorded %d call spans, want 2 (the third untraced)", r.Len())
	}
	r.ReleaseLane(l1)
	l3, _ := r.AcquireLane()
	if l3 != l1 {
		t.Fatalf("reacquire = %d, want released lane %d", l3, l1)
	}
}

func TestConcurrentLaneWritersRace(t *testing.T) {
	// One goroutine per lane, all writing at once: the per-lane
	// single-writer contract means this must be race-clean (run
	// under -race) and lose nothing below ring capacity.
	r := NewRecorder(Config{PerLane: 256, Callers: 4, Workers: 4})
	var wg sync.WaitGroup
	perWriter := 100
	// Hold all caller lanes before writing: a released lane may be
	// legitimately reacquired by a later caller, which would fold two
	// writers' events into one ring and confuse the count below.
	var acquired sync.WaitGroup
	acquired.Add(4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane, seq := r.AcquireLane()
			acquired.Done()
			acquired.Wait()
			defer r.ReleaseLane(lane)
			for i := 0; i < perWriter; i++ {
				now := time.Now()
				r.Span(lane, KindCall, "mpk", int32(i), seq, now, now)
			}
		}()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := r.WorkerLane(w)
			for i := 0; i < perWriter; i++ {
				now := time.Now()
				r.Span(lane, KindCompute, "forward", int32(i), 0, now, now)
			}
		}(g)
	}
	wg.Wait()
	if got, want := r.Len(), 8*perWriter; got != want {
		t.Fatalf("retained %d events, want %d", got, want)
	}
}

func TestChromeTraceRoundTrips(t *testing.T) {
	r := NewRecorder(Config{PerLane: 32, Callers: 1, Workers: 2})
	start := time.Now()
	lane, seq := r.AcquireLane()
	r.Span(r.WorkerLane(0), KindCompute, "forward", 0, seq, start, start.Add(50*time.Microsecond))
	r.Span(r.WorkerLane(0), KindBarrier, "forward", 0, seq, start.Add(50*time.Microsecond), start.Add(60*time.Microsecond))
	r.Span(r.WorkerLane(1), KindSweep, "backward", 1, seq, start, start.Add(80*time.Microsecond))
	r.Span(lane, KindCall, `m"pk`, -1, seq, start, start.Add(100*time.Microsecond))
	r.ReleaseLane(lane)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var spans, metas int
	cats := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			cats[ev.Cat]++
			if ev.Dur < 0 || ev.Pid != 1 {
				t.Fatalf("bad span %+v", ev)
			}
		case "M":
			metas++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != 4 {
		t.Fatalf("exported %d spans, want 4", spans)
	}
	if metas != 3 { // one thread_name per non-empty lane
		t.Fatalf("exported %d metadata events, want 3", metas)
	}
	for _, cat := range []string{"call", "sweep", "compute", "barrier"} {
		if cats[cat] != 1 {
			t.Fatalf("category %q appears %d times, want 1 (%v)", cat, cats[cat], cats)
		}
	}
	// The escaped quote in the call name must survive the round trip.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == `m"pk` {
			found = true
		}
	}
	if !found {
		t.Fatal("span name with quote did not round-trip")
	}
}

func TestWorkerLaneOutOfRange(t *testing.T) {
	r := NewRecorder(Config{PerLane: 8, Callers: 1, Workers: 2})
	if r.WorkerLane(2) != -1 {
		t.Fatal("worker id beyond capacity must map to -1")
	}
	if r.WorkerLane(-1) != -1 {
		t.Fatal("negative worker id must map to -1")
	}
	// Recording on the rejected lane is a silent no-op.
	r.Span(r.WorkerLane(2), KindCompute, "forward", 0, 0, time.Now(), time.Now())
	if r.Len() != 0 {
		t.Fatal("out-of-range lane recorded an event")
	}
}
