package serve

import (
	"sort"
	"sync"
	"time"

	"fbmpk/internal/events"
)

// The flight recorder is the daemon's bounded answer to "what was
// that slow request doing": it retains the N slowest request
// timelines seen since startup plus a ring of the N most recent
// errored/shed ones, each with its trace ID and per-phase breakdown.
// Both sets are fixed-size — a saturated recorder forgets, it never
// grows — and surface as JSON at /v1/debug/requests, which holds a
// request's trace ID and phases with the access log; /metrics, neither.

// flightCap is the daemon's per-set retention.
const flightCap = 16

// FlightEntry is one retained request timeline.
type FlightEntry struct {
	TraceID string `json:"trace_id"`
	Op      string `json:"op"`
	Outcome string `json:"outcome"`
	Status  int    `json:"status"`
	// Start is the request's arrival wall-clock time.
	Start time.Time `json:"start"`
	// Total is the request's full service duration.
	Total time.Duration `json:"total_ns"`
	// Phases is the request's lifecycle breakdown (decode, registry
	// acquire/build, plan admission/execute, encode, ...), offsets
	// relative to Start.
	Phases []events.Phase `json:"phases,omitempty"`
}

// flightRecorder retains the slowest and the most recently failed
// request timelines under one small mutex; observe is O(cap) worst
// case with cap a small constant, far off any kernel hot path.
type flightRecorder struct {
	mu sync.Mutex
	// slow holds up to cap entries in ascending Total order, so the
	// eviction candidate is always slow[0].
	slow []FlightEntry
	// recent is a ring of the last cap errored/shed entries; next is
	// the ring cursor.
	recent []FlightEntry
	next   int
	cap    int
	seen   uint64
}

// newFlightRecorder retains capacity (> 0) entries per set.
func newFlightRecorder(capacity int) *flightRecorder {
	return &flightRecorder{cap: capacity}
}

// observe offers one finished request to both retention sets.
func (f *flightRecorder) observe(e FlightEntry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seen++

	if len(f.slow) < f.cap || e.Total > f.slow[0].Total {
		if len(f.slow) == f.cap {
			copy(f.slow, f.slow[1:])
			f.slow = f.slow[:len(f.slow)-1]
		}
		i := sort.Search(len(f.slow), func(i int) bool { return f.slow[i].Total > e.Total })
		f.slow = append(f.slow, FlightEntry{})
		copy(f.slow[i+1:], f.slow[i:])
		f.slow[i] = e
	}

	if e.Outcome != outcomeOK {
		if len(f.recent) < f.cap {
			f.recent = append(f.recent, e)
		} else {
			f.recent[f.next] = e
			f.next = (f.next + 1) % f.cap
		}
	}
}

// snapshot copies both sets: slowest first (descending Total), then
// failures newest first. seen counts every request offered.
func (f *flightRecorder) snapshot() (slowest, failures []FlightEntry, seen uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	slowest = make([]FlightEntry, len(f.slow))
	for i, e := range f.slow {
		slowest[len(f.slow)-1-i] = e
	}
	failures = make([]FlightEntry, 0, len(f.recent))
	for i := len(f.recent) - 1; i >= 0; i-- {
		failures = append(failures, f.recent[(f.next+i)%len(f.recent)])
	}
	return slowest, failures, f.seen
}
