package core

import (
	"fmt"

	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// team is the SPMD executor every engine kernel runs on: a borrowed
// worker pool with the barrier its workers meet at, or — pool == nil —
// the calling goroutine as the only worker. There is no separate serial
// kernel anywhere in this package: a serial run is the parallel body at
// one worker, called inline, with nobody to wait for.
type team struct {
	pool *parallel.Pool
	bar  *parallel.Barrier
}

func newTeam(pool *parallel.Pool) team {
	if pool == nil {
		return team{}
	}
	return team{pool: pool, bar: parallel.NewBarrier(pool.Workers())}
}

func (t team) workers() int {
	if t.pool == nil {
		return 1
	}
	return t.pool.Workers()
}

// teamBody is one engine invocation's per-worker body. An interface
// rather than a func so the forward-backward driver can hand over its
// pooled state without allocating a closure per call.
type teamBody interface{ work(id int) }

// bodyFunc adapts a closure to teamBody.
type bodyFunc func(id int)

func (f bodyFunc) work(id int) { f(id) }

// run executes body.work(id) on every worker and waits for all of them.
func (t team) run(body teamBody) {
	if t.pool == nil {
		body.work(0)
		return
	}
	t.pool.Run(body.work)
}

// clock returns worker id's phase clock. The lone inline worker gets
// the tracing-only serial clock — nil unless a recorder is attached, so
// an untraced serial run allocates nothing and never reads the time —
// pool workers get the wait/compute-accounting one.
func (t team) clock(env *runEnv, id int) *phaseClock {
	if t.pool == nil {
		return env.serialClock()
	}
	return env.workerClock(id)
}

// sync ends a compute section and meets the other workers at the
// barrier. Cancellation protocol shared by every kernel: workers poll
// the run's flag after sync; one that observes it switches to skip mode
// — it stops computing but keeps crossing every barrier of the
// schedule, so workers that read the flag at different boundaries can
// never deadlock each other and the pool is immediately reusable. The
// run then returns errCanceledRun and its output is unspecified.
func (t team) sync(clock *phaseClock, ph phase, arg int32) {
	clock.endCompute(ph, arg)
	if t.pool != nil {
		t.bar.Wait()
		clock.endWait(ph, arg)
	}
}

// colorSchedule maps (color, worker) to a row range: the execution
// schedule of the forward-backward sweeps and of SYMGS (Section III-D /
// Algorithm 2). Colors run in sequence with a barrier in between —
// ascending in a forward sweep, descending in a backward one — and
// within a color each worker owns a contiguous run of blocks, which is
// exactly the dependency structure the ABMC coloring guarantees safe.
// The serial schedule is one color [0, n) on one inline worker: the
// same rows in the same order, whether or not the matrix was reordered.
type colorSchedule struct {
	team team
	// rows[c] holds the workers+1 row bounds of color c, balanced by row
	// count ("the number of blocks for each thread task are allocated in
	// advance", Algorithm 2).
	rows  [][]int
	head  []int // nnz-balanced row partition for the head SpMV over U
	dense []int // even row partition for the vector updates
}

// newColorSchedule schedules the split tri of an ABMC-ordered matrix
// over pool. A nil pool yields the serial schedule (ord is not
// consulted); otherwise ord must be the ordering that produced tri.
func newColorSchedule(tri *sparse.Triangular, ord *reorder.ABMCResult, pool *parallel.Pool) (*colorSchedule, error) {
	n := tri.N
	s := &colorSchedule{team: newTeam(pool)}
	if pool == nil {
		s.rows, s.head, s.dense = [][]int{{0, n}}, []int{0, n}, []int{0, n}
		return s, nil
	}
	if n != len(ord.Perm) {
		return nil, fmt.Errorf("core: matrix size %d != ordering size %d: %w", n, len(ord.Perm), ErrDimension)
	}
	w := pool.Workers()
	s.rows = make([][]int, ord.NumColors)
	for c := range s.rows {
		b := parallel.PartitionBlocks(int(ord.ColorPtr[c]), int(ord.ColorPtr[c+1]), w, ord.BlockPtr)
		for i, blk := range b {
			b[i] = int(ord.BlockPtr[blk])
		}
		s.rows[c] = b
	}
	s.head = parallel.PartitionByPtr(n, w, tri.U.RowPtr)
	s.dense = parallel.PartitionRows(n, w, func(int) int64 { return 1 })
	return s, nil
}
