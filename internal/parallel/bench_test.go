package parallel

import (
	"sync"
	"testing"
)

func BenchmarkPoolRunOverhead(b *testing.B) {
	p := NewPool(4)
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(func(int) {})
	}
}

// BenchmarkBarrierRound measures one phase crossing of the
// spin-then-yield barrier — the synchronization cost every FBMPK call
// pays k * NumColors times.
func BenchmarkBarrierRound(b *testing.B) {
	const parties = 4
	p := NewPool(parties)
	defer p.Close()
	bar := NewBarrier(parties)
	b.ResetTimer()
	p.Run(func(int) {
		for i := 0; i < b.N; i++ {
			bar.Wait()
		}
	})
}

// BenchmarkBarrierRoundCond is the before/after baseline: the previous
// sync.Cond (futex-wakeup) barrier on the same phase pattern.
func BenchmarkBarrierRoundCond(b *testing.B) {
	const parties = 4
	p := NewPool(parties)
	defer p.Close()
	bar := newCondBarrier(parties)
	b.ResetTimer()
	p.Run(func(int) {
		for i := 0; i < b.N; i++ {
			bar.Wait()
		}
	})
}

// condBarrier is the previous sync.Cond-based barrier, the comparison
// baseline of BenchmarkBarrierRoundCond.
type condBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     uint64
}

func newCondBarrier(parties int) *condBarrier {
	b := &condBarrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *condBarrier) Wait() {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

func BenchmarkPartitionRows(b *testing.B) {
	n := 1 << 20
	w := func(i int) int64 { return int64(i % 97) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PartitionRows(n, 16, w)
	}
}
