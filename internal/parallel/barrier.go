package parallel

import (
	"runtime"
	"sync/atomic"
)

// Barrier is a reusable synchronization barrier for a fixed party
// count: a central atomic counter with a generation number, spinning
// briefly before yielding to the scheduler. An FBMPK call crosses the
// barrier k * NumColors times (plus head/init phases), and between two
// crossings each worker only sweeps a fraction of one color's rows — on
// small matrices that is well under a microsecond of work, so the
// futex-backed wakeups of a sync.Cond barrier dominate the phase cost.
// Arrivals that are nearly simultaneous (the common case: the color
// partitions are row-balanced) complete in a handful of spins without
// entering the scheduler at all; stragglers yield via runtime.Gosched
// so oversubscribed pools (workers > cores) still make progress.
type Barrier struct {
	parties int32
	arrived atomic.Int32
	gen     atomic.Uint32
}

// spinRounds is how many times Wait polls the generation before it
// starts yielding. Each poll is an atomic load (a few ns); ~100 polls
// covers the arrival skew of balanced phases without burning a
// timeslice when a worker is genuinely descheduled.
const spinRounds = 128

// NewBarrier creates a barrier for the given number of parties.
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic("parallel: barrier needs at least one party")
	}
	return &Barrier{parties: int32(parties)}
}

// Wait blocks until all parties have called Wait, then releases them
// together. The barrier resets automatically for reuse.
func (b *Barrier) Wait() {
	if b.parties == 1 {
		return
	}
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.parties {
		// Last arrival: reset the counter for the next generation
		// BEFORE publishing the generation bump — once gen changes,
		// released parties may re-enter Wait and start counting again.
		b.arrived.Store(0)
		b.gen.Add(1)
		return
	}
	for spins := 0; b.gen.Load() == gen; spins++ {
		if spins >= spinRounds {
			runtime.Gosched()
		}
	}
}
