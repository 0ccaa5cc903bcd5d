package registry

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"fbmpk/internal/core"
	"fbmpk/internal/sparse"
)

// valueVariant deep-copies a with every value transformed, keeping the
// structure bit-identical.
func valueVariant(a *sparse.CSR, scale, shift float64) *sparse.CSR {
	nv := make([]float64, len(a.Val))
	for i, v := range a.Val {
		nv[i] = scale*v + shift
	}
	return &sparse.CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int64(nil), a.RowPtr...),
		ColIdx: append([]int32(nil), a.ColIdx...),
		Val:    nv,
	}
}

// TestRegistryUpdateValuesTransition covers the fingerprint-transition
// contract of an in-place update: the plan fingerprint moves (values
// are content), the structure+options key does not, the same plan
// object keeps serving under the new key, and the old content key is
// gone.
func TestRegistryUpdateValuesTransition(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	a1 := testCSR(rng, 96, 4)
	a2 := valueVariant(a1, 1.5, 0.25)
	opt := core.Options{Engine: core.EngineStandard}

	key1 := Fingerprint(a1, opt)
	key2 := Fingerprint(a2, opt)
	if key1 == key2 {
		t.Fatal("value change did not move the plan fingerprint")
	}
	s1, _, _ := timedDigests(context.Background(), a1, opt, false)
	s2, _, _ := timedDigests(context.Background(), a2, opt, false)
	if s1 != s2 {
		t.Fatal("value change moved the structure+options key")
	}

	reg := New(0)
	defer reg.Close()

	p1, err := reg.Acquire(a1, opt)
	if err != nil {
		t.Fatal(err)
	}

	p2, updated, err := reg.UpdateValues(a2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !updated {
		t.Fatal("UpdateValues fell back to a rebuild on unchanged structure")
	}
	if p2 != p1 {
		t.Fatal("in-place update returned a different plan object")
	}
	if p2.Epoch() != 1 {
		t.Fatalf("plan epoch = %d, want 1", p2.Epoch())
	}
	if st := p2.Stats(); st.Updates != 1 {
		t.Fatalf("plan Updates = %d, want 1", st.Updates)
	}

	// The entry now lives under the new content key: acquiring the
	// updated matrix is a hit on the same object.
	p3, err := reg.Acquire(a2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("Acquire of updated matrix missed the re-keyed entry")
	}
	st := reg.Stats()
	if st.Updated != 1 || st.Rebuilt != 0 {
		t.Fatalf("stats Updated=%d Rebuilt=%d, want 1, 0", st.Updated, st.Rebuilt)
	}
	if st.Hits != 1 {
		t.Fatalf("stats Hits=%d, want 1 (the post-update acquire)", st.Hits)
	}
	if st.Builds != 1 {
		t.Fatalf("stats Builds=%d, want 1 (update must not rebuild)", st.Builds)
	}

	// The old content key is gone: re-acquiring the original values
	// builds a second plan.
	pOld, err := reg.Acquire(a1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if pOld == p1 {
		t.Fatal("old-values acquire returned the updated plan")
	}

	for _, p := range []*core.Plan{p1, p2, p3, pOld} {
		if err := reg.Release(p); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
}

// TestRegistryUpdateValuesRebuildFallback: a structure delta (or a
// never-seen structure) cannot update in place; the call must still
// return a working plan, counted under Rebuilt.
func TestRegistryUpdateValuesRebuildFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	a := testCSR(rng, 80, 4)
	b := testCSR(rng, 80, 5) // different structure
	opt := churnOptions()

	reg := New(0)
	defer reg.Close()

	pa, err := reg.Acquire(a, opt)
	if err != nil {
		t.Fatal(err)
	}

	pb, updated, err := reg.UpdateValues(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if updated {
		t.Fatal("structure delta reported as in-place update")
	}
	if pb == pa {
		t.Fatal("structure delta returned the old plan")
	}
	st := reg.Stats()
	if st.Rebuilt != 1 || st.Updated != 0 {
		t.Fatalf("stats Updated=%d Rebuilt=%d, want 0, 1", st.Updated, st.Rebuilt)
	}
	if st.Builds != 2 {
		t.Fatalf("stats Builds=%d, want 2", st.Builds)
	}
	// The fallback still serves: both plans answer on their own matrix.
	x := make([]float64, 80)
	for i := range x {
		x[i] = 1
	}
	if _, err := pb.MPK(x, 2); err != nil {
		t.Fatalf("rebuilt plan MPK: %v", err)
	}

	reg.Release(pa) //nolint:errcheck
	reg.Release(pb) //nolint:errcheck
}

// TestRegistryUpdateValuesSameValues: updating with bitwise-identical
// values is a plain hit on the existing key — neither an epoch swap
// nor a rebuild.
func TestRegistryUpdateValuesSameValues(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	a := testCSR(rng, 64, 4)
	opt := churnOptions()

	reg := New(0)
	defer reg.Close()

	p1, err := reg.Acquire(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	p2, updated, err := reg.UpdateValues(valueVariant(a, 1, 0), opt)
	if err != nil {
		t.Fatal(err)
	}
	if updated || p2 != p1 {
		t.Fatalf("same-values update: updated=%v same-plan=%v, want false, true", updated, p2 == p1)
	}
	st := reg.Stats()
	if st.Updated != 0 || st.Rebuilt != 0 || st.Hits != 1 {
		t.Fatalf("stats Updated=%d Rebuilt=%d Hits=%d, want 0, 0, 1", st.Updated, st.Rebuilt, st.Hits)
	}
	if p1.Epoch() != 0 {
		t.Fatalf("epoch = %d, want 0 (no swap)", p1.Epoch())
	}
	reg.Release(p1) //nolint:errcheck
	reg.Release(p2) //nolint:errcheck
}

// TestRegistryUpdateValuesClosed: updates on a closed registry fail
// with ErrRegistryClosed.
func TestRegistryUpdateValuesClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	a := testCSR(rng, 32, 3)
	reg := New(0)
	reg.Close()
	if _, _, err := reg.UpdateValues(a, churnOptions()); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("UpdateValues on closed registry: %v, want ErrRegistryClosed", err)
	}
}

// TestRegistryUpdateValuesCanceledWhileWaiting: an update canceled while
// it waits for the registry's update lock fails with the context's
// error, the entry it pinned still serves under its old key, the plan
// keeps its values, and Stats.Updated does not move.
func TestRegistryUpdateValuesCanceledWhileWaiting(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	a1 := testCSR(rng, 96, 4)
	opt := core.Options{Engine: core.EngineForwardBackward, Threads: 2}
	reg := New(0)
	defer reg.Close()
	p, err := reg.Acquire(a1, opt)
	if err != nil {
		t.Fatal(err)
	}
	reg.Release(p) //nolint:errcheck // release of a just-acquired plan
	oldKey := Fingerprint(a1, opt)

	ctx, cancel := context.WithCancel(context.Background())
	reg.updateMu.Lock()
	done := make(chan error)
	go func() {
		_, _, err := reg.UpdateValuesCtx(ctx, valueVariant(a1, 2, 0), opt)
		done <- err
	}()
	waitForLockWaiter(t, "(*Registry).UpdateValuesKeyed")
	cancel()
	reg.updateMu.Unlock()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("update canceled while waiting: err = %v, want context.Canceled", err)
	}
	if st := reg.Stats(); st.Updated != 0 {
		t.Fatalf("Stats.Updated = %d after a canceled update, want 0", st.Updated)
	}
	hit, err := reg.AcquireKey(context.Background(), oldKey)
	if err != nil {
		t.Fatalf("entry not back under its old key: %v", err)
	}
	defer reg.Release(hit) //nolint:errcheck // release of a just-acquired plan
	if hit != p || hit.Epoch() != 0 {
		t.Fatalf("old key serves plan %p at epoch %d, want %p at epoch 0", hit, hit.Epoch(), p)
	}
}

// TestRegistryUpdateValuesHoldsCapacity: an Acquire miss while an
// in-place update swaps values evicts against a key map that still
// counts the pinned entry, so the registry holds its capacity whether
// the swap succeeds (re-key) or fails (the pin is dropped).
func TestRegistryUpdateValuesHoldsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	a, b, c := testCSR(rng, 48, 3), testCSR(rng, 40, 3), testCSR(rng, 32, 3)
	opt := core.Options{Engine: core.EngineStandard}
	for _, fail := range []bool{false, true} {
		reg := New(2)
		for _, m := range []*sparse.CSR{a, b} {
			p, err := reg.Acquire(m, opt)
			if err != nil {
				t.Fatal(err)
			}
			reg.Release(p) //nolint:errcheck // release of a just-acquired plan
		}
		ctx, cancel := context.WithCancel(context.Background())
		reg.swapHook = func() {
			if p, err := reg.Acquire(c, opt); err != nil {
				t.Error(err)
			} else {
				reg.Release(p) //nolint:errcheck // release of a just-acquired plan
			}
			if fail {
				cancel() // the swap then fails and drops its pin
			}
		}
		p, _, err := reg.UpdateValuesCtx(ctx, valueVariant(a, 2, 0), opt)
		if fail != errors.Is(err, context.Canceled) {
			t.Fatalf("fail=%v: update err = %v", fail, err)
		}
		if p != nil {
			reg.Release(p) //nolint:errcheck // release of the updated plan
		}
		if st := reg.Stats(); st.Entries > st.Capacity {
			t.Errorf("fail=%v: %d entries in a capacity-%d registry after every release", fail, st.Entries, st.Capacity)
		}
		cancel()
		reg.Close()
	}
}

// TestRegistryUpdateValuesCloseDuringSwap: a registry Close that lands
// while an in-place update swaps values unlinks the pinned entry like
// any other, the update skips its re-key, and the update's Release
// closes the plan: nothing stays cached and no worker pool leaks.
func TestRegistryUpdateValuesCloseDuringSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	a := testCSR(rng, 64, 3)
	opt := core.Options{Engine: core.EngineForwardBackward, Threads: 2}
	reg := New(0)
	p, err := reg.Acquire(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	reg.Release(p) //nolint:errcheck // release of a just-acquired plan
	reg.swapHook = reg.Close
	up, updated, err := reg.UpdateValues(valueVariant(a, 2, 0), opt)
	if err != nil || !updated || up != p {
		t.Fatalf("update beside Close: updated=%v same-plan=%v err=%v, want true, true, nil", updated, up == p, err)
	}
	if p.Closed() {
		t.Fatal("plan closed while the update's reference is held")
	}
	if err := reg.Release(up); err != nil {
		t.Fatal(err)
	}
	if st := reg.Stats(); st.Entries != 0 || st.Live != 0 {
		t.Errorf("closed registry holds %d entries (%d live) after the last release, want 0", st.Entries, st.Live)
	}
	if !p.Closed() {
		t.Error("plan still open after the last release from a closed registry")
	}
}

// TestRegistryUpdateValuesOldKeyDuringSwap: an AcquireKey of the old
// key while an in-place update swaps values is ordered before the
// update: it hits the pinned plan (no miss, no build) and, like every
// holder, executes on the new values once the update returns.
func TestRegistryUpdateValuesOldKeyDuringSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	a := testCSR(rng, 64, 3)
	opt := core.Options{Engine: core.EngineStandard}
	reg := New(0)
	defer reg.Close()
	p, err := reg.Acquire(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	reg.Release(p) //nolint:errcheck // release of a just-acquired plan
	oldKey := Fingerprint(a, opt)
	var held *core.Plan
	reg.swapHook = func() {
		held, err = reg.AcquireKey(context.Background(), oldKey)
	}
	up, updated, uerr := reg.UpdateValues(valueVariant(a, 2, 0), opt)
	if uerr != nil || !updated {
		t.Fatalf("update: updated=%v err=%v", updated, uerr)
	}
	defer reg.Release(up) //nolint:errcheck // release of the updated plan
	if err != nil {
		t.Fatalf("AcquireKey of the old key during the swap: %v, want a hit", err)
	}
	defer reg.Release(held) //nolint:errcheck // release of the AcquireKey hit
	if held != p || up != p {
		t.Fatal("AcquireKey during the swap or the update returned another plan")
	}
	if st := reg.Stats(); st.Misses != 1 || st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("stats Misses=%d Builds=%d Hits=%d, want 1, 1, 1 (the first Acquire, then the hit)", st.Misses, st.Builds, st.Hits)
	}
	if held.Epoch() != 1 {
		t.Fatalf("held plan at epoch %d after the update, want 1", held.Epoch())
	}
}

// waitForLockWaiter returns once some goroutine is blocked taking a
// mutex inside the function fn names.
func waitForLockWaiter(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "Mutex).Lock") && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine blocked on a mutex in %s", fn)
}
