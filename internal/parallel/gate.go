package parallel

import (
	"context"
	"errors"
	"sync"
)

// ErrClosed is returned by Gate.Enter after Close has begun. Callers
// (the plan layer) wrap it in their own typed sentinel.
var ErrClosed = errors.New("parallel: gate closed")

// Gate is a fair FIFO admission semaphore with graceful-close
// semantics, the concurrency front door of a shared Plan. Up to
// capacity executions are in flight at once; excess callers queue in
// arrival order and slots are handed off directly to the head waiter
// (no barging: a new arrival cannot overtake a queued one). Close
// fails later arrivals with ErrClosed, lets already-queued waiters
// run, and blocks until every admitted execution has left.
type Gate struct {
	mu       sync.Mutex
	idle     sync.Cond // signaled when inflight and the queue both drain
	capacity int
	inflight int
	closed   bool
	waiters  []chan struct{}
}

// NewGate creates a gate admitting up to capacity concurrent entries;
// capacity < 1 is treated as 1.
func NewGate(capacity int) *Gate {
	if capacity < 1 {
		capacity = 1
	}
	g := &Gate{capacity: capacity}
	g.idle.L = &g.mu
	return g
}

// Enter blocks until a slot is available (FIFO order), the gate is
// closed (ErrClosed), or ctx is done (ctx.Err()). A nil ctx never
// cancels. On nil return the caller holds a slot and must Leave.
func (g *Gate) Enter(ctx context.Context) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	if g.inflight < g.capacity && len(g.waiters) == 0 {
		g.inflight++
		g.mu.Unlock()
		return nil
	}
	w := make(chan struct{})
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()

	if ctx == nil {
		<-w
		return nil
	}
	select {
	case <-w:
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		select {
		case <-w:
			// The slot was handed to us between ctx firing and taking
			// the lock; we are canceling, so give it back.
			g.mu.Unlock()
			g.Leave()
		default:
			g.removeLocked(w)
			g.signalIdleLocked()
			g.mu.Unlock()
		}
		return ctx.Err()
	}
}

// Leave releases a slot obtained by Enter, handing it to the head
// waiter if any.
func (g *Gate) Leave() {
	g.mu.Lock()
	g.inflight--
	g.grantLocked()
	g.signalIdleLocked()
	g.mu.Unlock()
}

// Close marks the gate closed (later Enter calls fail with ErrClosed),
// lets already-queued waiters run, and blocks until the gate drains.
// Close is idempotent and safe for concurrent use.
func (g *Gate) Close() {
	g.mu.Lock()
	g.closed = true
	for g.inflight > 0 || len(g.waiters) > 0 {
		g.idle.Wait()
	}
	g.mu.Unlock()
}

// grantLocked hands free slots to queued waiters in FIFO order.
func (g *Gate) grantLocked() {
	for g.inflight < g.capacity && len(g.waiters) > 0 {
		w := g.waiters[0]
		g.waiters = g.waiters[1:]
		g.inflight++
		close(w)
	}
}

// removeLocked deletes a canceled waiter from the queue.
func (g *Gate) removeLocked(w chan struct{}) {
	for i, q := range g.waiters {
		if q == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return
		}
	}
}

func (g *Gate) signalIdleLocked() {
	if g.inflight == 0 && len(g.waiters) == 0 {
		g.idle.Broadcast()
	}
}
