package parallel

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestGateCapacity checks that at most capacity entries are in flight.
func TestGateCapacity(t *testing.T) {
	g := NewGate(2)
	if got := g.capacity; got != 2 {
		t.Fatalf("capacity = %d, want 2", got)
	}
	if err := g.Enter(nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Enter(nil); err != nil {
		t.Fatal(err)
	}
	third := make(chan struct{})
	go func() {
		if err := g.Enter(nil); err != nil {
			t.Errorf("queued Enter: %v", err)
		}
		close(third)
	}()
	select {
	case <-third:
		t.Fatal("third Enter succeeded past capacity 2")
	case <-time.After(20 * time.Millisecond):
	}
	g.Leave()
	select {
	case <-third:
	case <-time.After(time.Second):
		t.Fatal("queued Enter not granted after Leave")
	}
	g.Leave()
	g.Leave()
}

// TestGateClampsCapacity checks capacity < 1 is treated as 1.
func TestGateClampsCapacity(t *testing.T) {
	if got := NewGate(0).capacity; got != 1 {
		t.Errorf("NewGate(0).capacity = %d, want 1", got)
	}
	if got := NewGate(-3).capacity; got != 1 {
		t.Errorf("NewGate(-3).capacity = %d, want 1", got)
	}
}

// TestGateFIFO checks waiters are granted in arrival order and a new
// arrival cannot barge past the queue.
func TestGateFIFO(t *testing.T) {
	g := NewGate(1)
	if err := g.Enter(nil); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := g.Enter(nil); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			g.Leave()
		}(i)
		// Serialize arrivals so the expected FIFO order is well defined.
		time.Sleep(10 * time.Millisecond)
	}
	g.Leave()
	wg.Wait()
	for i, got := range order {
		if got != i+1 {
			t.Fatalf("grant order %v, want [1 2 3]", order)
		}
	}
}

// TestGateEnterAfterClose checks late arrivals fail with ErrClosed.
func TestGateEnterAfterClose(t *testing.T) {
	g := NewGate(1)
	g.Close()
	if err := g.Enter(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enter after Close: got %v, want ErrClosed", err)
	}
	g.Close() // idempotent
}

// TestGateCloseDrains checks Close blocks until in-flight entries and
// already-queued waiters have left, and that queued waiters still run.
func TestGateCloseDrains(t *testing.T) {
	g := NewGate(1)
	if err := g.Enter(nil); err != nil {
		t.Fatal(err)
	}
	queuedRan := make(chan error, 1)
	go func() {
		err := g.Enter(nil)
		if err == nil {
			g.Leave()
		}
		queuedRan <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter queue

	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-closed:
		t.Fatal("Close returned while an entry was in flight")
	default:
	}
	// A late arrival during the drain is rejected.
	if err := g.Enter(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enter during drain: got %v, want ErrClosed", err)
	}
	g.Leave()
	if err := <-queuedRan; err != nil {
		t.Fatalf("waiter queued before Close must still run, got %v", err)
	}
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close did not return after the gate drained")
	}
}

// TestGateContextCancel checks a queued waiter honors its context and
// that a slot granted concurrently with cancellation is returned.
func TestGateContextCancel(t *testing.T) {
	g := NewGate(1)
	if err := g.Enter(nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- g.Enter(ctx) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued Enter with canceled ctx: got %v, want context.Canceled", err)
	}
	g.Leave()
	// The canceled waiter must not have leaked the slot.
	if err := g.Enter(nil); err != nil {
		t.Fatalf("gate unusable after canceled waiter: %v", err)
	}
	g.Leave()
	g.Close()
}
