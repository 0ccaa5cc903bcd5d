package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// TestCloseIdempotent is the regression test for double-Close: a
// second (or hundredth) Close must be a quiet no-op, not a panic on a
// re-closed gate or worker pool.
func TestCloseIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, threads := range []int{0, 4} {
		a := randomCSR(rng, 64, 4)
		p, err := NewPlan(a, DefaultOptions(threads))
		if err != nil {
			t.Fatalf("NewPlan: %v", err)
		}
		if p.Closed() {
			t.Fatalf("threads=%d: fresh plan reports Closed", threads)
		}
		p.Close()
		if !p.Closed() {
			t.Fatalf("threads=%d: plan not Closed after Close", threads)
		}
		p.Close() // must not panic
		p.Close()
		if _, err := p.MPK(randVec(rng, 64), 2); !errors.Is(err, ErrClosed) {
			t.Fatalf("threads=%d: MPK after Close: got %v, want ErrClosed", threads, err)
		}
	}
}

// TestCloseConcurrent hammers Close from many goroutines at once;
// every call must return (none may panic or deadlock), and all must
// observe the closed state afterwards. Run with -race.
func TestCloseConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomCSR(rng, 64, 4)
	p, err := NewPlan(a, DefaultOptions(4))
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
	}
	wg.Wait()
	if !p.Closed() {
		t.Fatal("plan not Closed after concurrent Closes")
	}
}

// TestCloseWhileInFlight races Close against executing goroutines:
// in-flight runs must either complete with a correct result or be
// rejected with ErrClosed — never a torn result or a crash — and a
// Close that lands mid-execution must still drain cleanly.
func TestCloseWhileInFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 256
	a := randomCSR(rng, n, 6)
	x := randVec(rng, n)
	// Reference from an identically configured plan: parallel FB plans
	// reorder with ABMC, so serial and parallel results differ in the
	// last bits; same-options plans must agree exactly.
	want, err := func() ([]float64, error) {
		p, err := NewPlan(a, DefaultOptions(2))
		if err != nil {
			return nil, err
		}
		defer p.Close()
		return p.MPK(x, 3)
	}()
	if err != nil {
		t.Fatalf("reference MPK: %v", err)
	}

	for round := 0; round < 5; round++ {
		p, err := NewPlan(a, DefaultOptions(2))
		if err != nil {
			t.Fatalf("NewPlan: %v", err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for it := 0; it < 4; it++ {
					y, err := p.MPK(x, 3)
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("in-flight MPK: got %v, want nil or ErrClosed", err)
						}
						return
					}
					for i := range y {
						if y[i] != want[i] {
							t.Errorf("torn result at [%d]: got %g want %g", i, y[i], want[i])
							return
						}
					}
				}
			}()
		}
		// One goroutine closes while the others run; the main goroutine
		// double-closes behind it.
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p.Close()
		}()
		close(start)
		wg.Wait()
		p.Close()
		if !p.Closed() {
			t.Fatal("plan not Closed after drain")
		}
	}
}

// TestDegreeZeroIsAnExecution pins that a degree-0 polynomial (one
// coefficient: pure scaling, no matrix pass) is admitted like every
// other call: refused with ErrClosed after Close, canceled by an
// already-done context, and counted in the per-op call metrics.
func TestDegreeZeroIsAnExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomCSR(rng, 48, 4)
	x := randVec(rng, 48)
	calls := []struct {
		op  string
		run func(ctx context.Context, p *Plan) error
	}{
		{"sspmv", func(ctx context.Context, p *Plan) error {
			y, err := p.SSpMVCtx(ctx, []float64{2}, x)
			if err == nil && y[3] != 2*x[3] {
				t.Errorf("SSpMV degree 0: y[3] = %g, want %g", y[3], 2*x[3])
			}
			return err
		}},
		{"sspmv_multi", func(ctx context.Context, p *Plan) error {
			ys, err := p.SSpMVMultiCtx(ctx, []float64{2}, [][]float64{x, x})
			if err == nil && (len(ys) != 2 || ys[1][3] != 2*x[3]) {
				t.Errorf("SSpMVMulti degree 0: wrong result")
			}
			return err
		}},
		{"sspmv_complex", func(ctx context.Context, p *Plan) error {
			re, im, err := p.SSpMVComplexCtx(ctx, []complex128{complex(2, -3)}, x)
			if err == nil && (re[3] != 2*x[3] || im[3] != -3*x[3]) {
				t.Errorf("SSpMVComplex degree 0: (%g, %g), want (%g, %g)", re[3], im[3], 2*x[3], -3*x[3])
			}
			return err
		}},
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, threads := range []int{0, 4} {
		for _, c := range calls {
			p, err := NewPlan(a, DefaultOptions(threads))
			if err != nil {
				t.Fatalf("NewPlan: %v", err)
			}
			if err := c.run(context.Background(), p); err != nil {
				t.Fatalf("threads=%d %s: %v", threads, c.op, err)
			}
			if got := p.Metrics().CallsByOp[c.op]; got != 1 {
				t.Errorf("threads=%d %s: CallsByOp = %d, want 1", threads, c.op, got)
			}
			if err := c.run(done, p); !errors.Is(err, context.Canceled) {
				t.Errorf("threads=%d %s with a done context: got %v, want context.Canceled", threads, c.op, err)
			}
			p.Close()
			if err := c.run(context.Background(), p); !errors.Is(err, ErrClosed) {
				t.Errorf("threads=%d %s after Close: got %v, want ErrClosed", threads, c.op, err)
			}
		}
	}
}
