// Package parallel provides the threading substrate for the parallel
// kernels: a persistent worker pool (so the per-color phases of FBMPK
// do not pay goroutine fork/join on every sweep), a reusable barrier
// for the color-phase synchronization, an nnz-balanced row partitioner
// for the head/tail SpMV phases, and Deal, which spreads a one-off pass
// over transient goroutines.
package parallel

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
)

// Pool is a persistent set of worker goroutines executing SPMD-style
// jobs: every worker runs the same function with its worker id. Pool
// is the Go analogue of an OpenMP parallel region; FBMPK enters one
// region per MPK call and synchronizes colors with a Barrier inside.
type Pool struct {
	workers int
	name    string
	jobs    []chan func(id int)
	done    chan struct{}
	wg      sync.WaitGroup
	closed  bool
	mu      sync.Mutex
}

// NewPool starts a pool with the given number of workers; n <= 0
// selects GOMAXPROCS. The pool must be released with Close.
func NewPool(n int) *Pool {
	return NewPoolNamed(n, "pool")
}

// NewPoolNamed is NewPool with a name that tags the worker goroutines
// with pprof labels ("fbmpk_pool" = name, "fbmpk_worker" = id), so CPU
// profiles of a serving process attribute kernel time to the pool and
// worker that spent it.
func NewPoolNamed(n int, name string) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: n,
		name:    name,
		jobs:    make([]chan func(id int), n),
		done:    make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		p.jobs[i] = make(chan func(id int))
		go p.worker(i)
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) worker(id int) {
	labels := pprof.Labels("fbmpk_pool", p.name, "fbmpk_worker", strconv.Itoa(id))
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), labels))
	for {
		select {
		case f := <-p.jobs[id]:
			f(id)
			p.wg.Done()
		case <-p.done:
			return
		}
	}
}

// Run executes f(id) on every worker and waits for all of them.
// f must not call Run on the same pool (no nesting).
func (p *Pool) Run(f func(id int)) {
	p.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		p.jobs[i] <- f
	}
	p.wg.Wait()
}

// Close stops the workers. The pool must not be used afterwards;
// Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		close(p.done)
		p.closed = true
	}
}

// ForRanges splits [lo, hi) into one contiguous range per worker and
// runs body(id, start, end), the static schedule of OpenMP: use it for
// bodies that process a range natively (e.g. SpMVRange).
func (p *Pool) ForRanges(lo, hi int, body func(id, start, end int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	p.Run(func(id int) {
		start := lo + id*n/p.workers
		end := lo + (id+1)*n/p.workers
		if start < end {
			body(id, start, end)
		}
	})
}
