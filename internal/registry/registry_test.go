package registry

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fbmpk/internal/core"
	"fbmpk/internal/matgen"
	"fbmpk/internal/sparse"
)

// testFixture is one matrix plus its expected MPK result under the
// fixed test options — same options build bitwise-identical plans, so
// any mismatch during churn means a caller observed a torn or closed
// plan.
type testFixture struct {
	a    *sparse.CSR
	x    []float64
	want []float64
}

const (
	churnN     = 64
	churnPower = 2
)

func churnOptions() core.Options { return core.DefaultOptions(0) }

func makeFixtures(t testing.TB, count int) []testFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	fx := make([]testFixture, count)
	for i := range fx {
		a := testCSR(rng, churnN, 4)
		x := make([]float64, churnN)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		p, err := core.NewPlan(a, churnOptions())
		if err != nil {
			t.Fatalf("fixture plan: %v", err)
		}
		want, err := p.MPK(x, churnPower)
		if err != nil {
			t.Fatalf("fixture MPK: %v", err)
		}
		p.Close()
		fx[i] = testFixture{a: a, x: x, want: want}
	}
	return fx
}

// checkPlan runs the fixture's MPK on p, a plan the caller holds, and
// verifies the result bitwise against the fixture. Any error means an
// evicted-but-referenced plan was closed early: the use-after-Close bug.
func (f *testFixture) checkPlan(t *testing.T, p *core.Plan) {
	t.Helper()
	y, err := p.MPK(f.x, churnPower)
	if err != nil {
		t.Errorf("MPK on a held plan: %v", err)
	}
	for i := range y {
		if y[i] != f.want[i] {
			t.Errorf("result diverges at [%d]: got %g want %g", i, y[i], f.want[i])
			return
		}
	}
}

// TestRegistryHitSkipsBuild is the core caching contract: a second
// Acquire of the same key returns the same plan object without
// rebuilding, and the counters say so.
func TestRegistryHitSkipsBuild(t *testing.T) {
	fx := makeFixtures(t, 1)[0]
	reg := New(4)
	defer reg.Close()

	p1, err := reg.Acquire(fx.a, churnOptions())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	p2, err := reg.Acquire(fx.a, churnOptions())
	if err != nil {
		t.Fatalf("second Acquire: %v", err)
	}
	if p1 != p2 {
		t.Error("hit returned a different plan object (preprocessing re-ran)")
	}
	s := reg.Stats()
	if s.Builds != 1 || s.Misses != 1 || s.Hits != 1 {
		t.Errorf("counters: builds=%d misses=%d hits=%d, want 1/1/1", s.Builds, s.Misses, s.Hits)
	}
	if s.Live != 1 || s.Entries != 1 {
		t.Errorf("occupancy: live=%d entries=%d, want 1/1", s.Live, s.Entries)
	}
	if hr := s.HitRate(); hr != 0.5 {
		t.Errorf("hit rate %.2f, want 0.50", hr)
	}
	if err := reg.Release(p1); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := reg.Release(p2); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := reg.Release(p2); !errors.Is(err, ErrNotAcquired) {
		t.Errorf("over-Release: got %v, want ErrNotAcquired", err)
	}
	if s := reg.Stats(); s.Live != 0 || s.Entries != 1 {
		t.Errorf("after release: live=%d entries=%d, want 0/1 (plan stays cached)", s.Live, s.Entries)
	}
}

// TestRegistrySingleflight launches 12 goroutines acquiring 6 distinct
// matrices (two per key, all released from one starting gun) against
// an ample-capacity registry and asserts the build counter equals the
// number of distinct keys: concurrent misses on one key coalesce onto
// exactly one preprocessing run. Run with -race.
func TestRegistrySingleflight(t *testing.T) {
	const distinct = 6
	fx := makeFixtures(t, distinct)
	reg := New(0) // unbounded: no eviction can re-trigger a build
	defer reg.Close()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 2*distinct; g++ {
		f := &fx[g%distinct]
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, err := reg.Acquire(f.a, churnOptions())
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			f.checkPlan(t, p)
			if err := reg.Release(p); err != nil {
				t.Errorf("Release: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()

	s := reg.Stats()
	if s.Builds != distinct {
		t.Errorf("builds=%d, want %d (one per distinct key)", s.Builds, distinct)
	}
	if got := s.Hits + s.Misses + s.Coalesced; got != 2*distinct {
		t.Errorf("lookups=%d, want %d", got, 2*distinct)
	}
	if s.Live != 0 {
		t.Errorf("live=%d after all releases, want 0", s.Live)
	}
}

// TestRegistryChurn thrashes a 3-entry LRU with 12 worker goroutines
// cycling through 6 distinct matrices while an evictor goroutine
// forces constant capacity pressure. Every result is checked bitwise
// against a precomputed fixture — a use-after-Close would surface as
// ErrClosed or a wrong result — and afterwards refcounts must have
// drained to zero with occupancy within capacity. Run with -race.
func TestRegistryChurn(t *testing.T) {
	const (
		distinct = 6
		workers  = 12
		iters    = 15
		capacity = 3
	)
	fx := makeFixtures(t, distinct)
	reg := New(capacity)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for it := 0; it < iters; it++ {
				f := &fx[(g+it)%distinct]
				p, err := reg.Acquire(f.a, churnOptions())
				if err != nil {
					t.Errorf("worker %d: Acquire: %v", g, err)
					return
				}
				f.checkPlan(t, p)
				if err := reg.Release(p); err != nil {
					t.Errorf("worker %d: Release: %v", g, err)
				}
			}
		}()
	}
	// The evictor walks the matrices in a different stride, acquiring
	// and instantly releasing, keeping the 3-entry LRU permanently
	// over-subscribed with 6 keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for it := 0; it < workers*iters/2; it++ {
			f := &fx[(5*it)%distinct]
			p, err := reg.Acquire(f.a, churnOptions())
			if err != nil {
				t.Errorf("evictor: Acquire: %v", err)
				return
			}
			if err := reg.Release(p); err != nil {
				t.Errorf("evictor: Release: %v", err)
			}
		}
	}()
	close(start)
	wg.Wait()

	s := reg.Stats()
	if s.Live != 0 {
		t.Errorf("live=%d after drain, want 0", s.Live)
	}
	if s.Entries > capacity {
		t.Errorf("entries=%d exceeds capacity %d", s.Entries, capacity)
	}
	if s.Evictions == 0 {
		t.Error("evictor produced no evictions; churn did not exercise capacity pressure")
	}
	if s.BuildFailures != 0 {
		t.Errorf("build failures: %d", s.BuildFailures)
	}
	reg.Close()
	if s := reg.Stats(); s.Entries != 0 {
		t.Errorf("entries=%d after Close, want 0", s.Entries)
	}
}

// TestRegistryLRUOrder pins the eviction policy: least-recently-used
// goes first, and a re-acquire refreshes recency.
func TestRegistryLRUOrder(t *testing.T) {
	fx := makeFixtures(t, 3)
	reg := New(2)
	defer reg.Close()
	acquire := func(i int) *core.Plan {
		t.Helper()
		p, err := reg.Acquire(fx[i].a, churnOptions())
		if err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
		return p
	}
	release := func(p *core.Plan) {
		t.Helper()
		if err := reg.Release(p); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}

	release(acquire(0)) // entries: [0]
	release(acquire(1)) // entries: [1 0]
	release(acquire(2)) // evicts 0 -> [2 1]
	if s := reg.Stats(); s.Evictions != 1 || s.Builds != 3 {
		t.Fatalf("after third insert: evictions=%d builds=%d, want 1/3", s.Evictions, s.Builds)
	}
	release(acquire(1)) // hit, refreshes 1 -> [1 2]
	release(acquire(0)) // miss again, evicts 2 -> [0 1]
	s := reg.Stats()
	if s.Builds != 4 {
		t.Errorf("builds=%d, want 4 (matrix 0 was evicted and rebuilt)", s.Builds)
	}
	if s.Hits != 1 {
		t.Errorf("hits=%d, want 1", s.Hits)
	}
	release(acquire(1)) // still cached
	if s := reg.Stats(); s.Hits != 2 {
		t.Errorf("hits=%d, want 2 (matrix 1 survived as recently used)", s.Hits)
	}
}

// TestRegistryDeferredTeardown evicts a plan that is still referenced
// and verifies it keeps working until the last Release, which closes
// it.
func TestRegistryDeferredTeardown(t *testing.T) {
	fx := makeFixtures(t, 2)
	reg := New(1)
	defer reg.Close()

	held, err := reg.Acquire(fx[0].a, churnOptions())
	if err != nil {
		t.Fatalf("Acquire held: %v", err)
	}
	// Inserting the second key evicts the first while it is held.
	other, err := reg.Acquire(fx[1].a, churnOptions())
	if err != nil {
		t.Fatalf("Acquire other: %v", err)
	}
	if s := reg.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions=%d, want 1", s.Evictions)
	}
	if held.Closed() {
		t.Fatal("evicted-but-referenced plan was closed early")
	}
	fx[0].checkPlan(t, held)

	if err := reg.Release(held); err != nil {
		t.Fatalf("Release held: %v", err)
	}
	if !held.Closed() {
		t.Error("last Release of an evicted plan did not close it")
	}
	if _, err := held.MPK(fx[0].x, churnPower); !errors.Is(err, core.ErrClosed) {
		t.Errorf("MPK after teardown: got %v, want ErrClosed", err)
	}
	if err := reg.Release(other); err != nil {
		t.Fatalf("Release other: %v", err)
	}
}

// TestRegistryClose covers shutdown semantics: Acquire after Close is
// rejected, held plans survive until released, Close is idempotent.
func TestRegistryClose(t *testing.T) {
	fx := makeFixtures(t, 2)
	reg := New(4)

	held, err := reg.Acquire(fx[0].a, churnOptions())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	release1, err := reg.Acquire(fx[1].a, churnOptions())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if err := reg.Release(release1); err != nil {
		t.Fatalf("Release: %v", err)
	}

	reg.Close()
	reg.Close() // idempotent

	if _, err := reg.Acquire(fx[0].a, churnOptions()); !errors.Is(err, ErrRegistryClosed) {
		t.Errorf("Acquire after Close: got %v, want ErrRegistryClosed", err)
	}
	if release1.Closed() != true {
		t.Error("unreferenced plan not closed by registry Close")
	}
	if held.Closed() {
		t.Fatal("held plan closed by registry Close")
	}
	fx[0].checkPlan(t, held)
	if err := reg.Release(held); err != nil {
		t.Fatalf("final Release: %v", err)
	}
	if !held.Closed() {
		t.Error("final Release after registry Close did not close the plan")
	}
}

// TestRegistryRejectsBadMatrix checks input validation happens before
// hashing.
func TestRegistryRejectsBadMatrix(t *testing.T) {
	reg := New(2)
	defer reg.Close()
	if _, err := reg.Acquire(nil); !errors.Is(err, core.ErrInvalidMatrix) {
		t.Errorf("nil matrix: got %v, want ErrInvalidMatrix", err)
	}
	bad := &sparse.CSR{Rows: 2, Cols: 2, RowPtr: []int64{0, 1}, ColIdx: []int32{0}, Val: []float64{1}}
	if _, err := reg.Acquire(bad); !errors.Is(err, core.ErrInvalidMatrix) {
		t.Errorf("short RowPtr: got %v, want ErrInvalidMatrix", err)
	}
	// Column damage is found inside the content pass; the error is still
	// CSR.Validate's, and still outranks an already canceled context.
	desc := &sparse.CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 2, 3}, ColIdx: []int32{2, 1, 0}, Val: []float64{1, 2, 3}}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ctx := range []context.Context{context.Background(), canceled} {
		_, err := reg.AcquireCtx(ctx, desc)
		if !errors.Is(err, core.ErrInvalidMatrix) || !strings.HasSuffix(err.Error(), desc.Validate().Error()) {
			t.Errorf("descending columns (ctx err %v): got %v, want ErrInvalidMatrix: %v", ctx.Err(), err, desc.Validate())
		}
	}
	// The other road into a build — UpdateValues with nothing to update —
	// vouches for the matrix to NewPlan as Acquire does, so it must have
	// validated it first, with the same error.
	if _, _, err := reg.UpdateValues(desc); !errors.Is(err, core.ErrInvalidMatrix) || !strings.HasSuffix(err.Error(), desc.Validate().Error()) {
		t.Errorf("UpdateValues of descending columns: got %v, want ErrInvalidMatrix: %v", err, desc.Validate())
	}
	if s := reg.Stats(); s.Lookups() != 0 || s.Canceled != 0 {
		t.Errorf("rejected inputs counted as lookups or cancellations: %+v", s)
	}
}

// TestRegistryTuneVerdictCache: a standard-engine plan is a function of
// the matrix and its options alone, so the registry has nothing to
// carry from one build to the next. The first Acquire of a structure, an
// Acquire of other values, and a re-acquire after the plan was
// LRU-evicted each return the bits of a fresh plan of what they were
// given. On audikw_1's stand-in, a natural-order plan and one on the
// ABMC order of two workers are two entries, whichever was built first,
// and a plan of other values through the registry is bitwise a fresh
// plan of them — also after the caller wrote to the arrays it built from.
func TestRegistryTuneVerdictCache(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a := testCSR(rng, 300, 5)
	reg := New(1)
	defer reg.Close()

	std := core.Options{Engine: core.EngineStandard}
	// freshBits holds what the registry returns for m under opt to a
	// fresh plan of them: MPK at power 3, bit for bit.
	freshBits := func(r *Registry, m *sparse.CSR, opt core.Options) *core.Plan {
		t.Helper()
		p, err := r.Acquire(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.NewPlan(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer want.Close()
		x := make([]float64, m.Rows)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		yr, err := p.MPK(x, 3)
		if err != nil {
			t.Fatal(err)
		}
		yw, err := want.MPK(x, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(yr, yw) {
			t.Fatalf("%+v: the registry's plan differs from a fresh plan", opt)
		}
		return p
	}
	reg.Release(freshBits(reg, a, std))
	b := cloneCSR(a)
	for i := range b.Val {
		b.Val[i] += 0.5
	}
	reg.Release(freshBits(reg, b, std))
	// Evict the plan with an unrelated matrix (capacity 1), then
	// re-acquire: the plan rebuilds.
	reg.Release(freshBits(reg, testCSR(rng, 200, 4), std))
	before := reg.Stats().Builds
	reg.Release(freshBits(reg, a, std))
	if s := reg.Stats(); s.Builds != before+1 || s.Evictions == 0 {
		t.Fatalf("the re-acquire should have rebuilt an evicted plan: %+v", s)
	}

	spec, err := matgen.ByName("audikw_1")
	if err != nil {
		t.Fatal(err)
	}
	aud := spec.Generate(0.02, 1)
	abmc := core.DefaultOptions(2)
	reg2 := New(0)
	defer reg2.Close()
	pa := freshBits(reg2, aud, abmc)
	defer reg2.Release(pa)
	pn := freshBits(reg2, aud, std)
	defer reg2.Release(pn)
	if pa == pn || reg2.Stats().Builds != 2 {
		t.Fatalf("natural and ABMC orders share a plan: %+v", reg2.Stats())
	}
	audB := cloneCSR(aud)
	for i := range audB.Val {
		audB.Val[i] *= 1.5
	}
	defer reg2.Release(freshBits(reg2, audB, std))

	// A cached standard plan computes on the content its key names: after
	// the caller scales the values it built from, an untouched copy of
	// them acquires the same plan, unbuilt, with a fresh plan's bits.
	c := testCSR(rng, 150, 4)
	orig := cloneCSR(c)
	p := freshBits(reg2, c, std)
	reg2.Release(p)
	for i := range c.Val {
		c.Val[i] *= 3
	}
	builds := reg2.Stats().Builds
	if q := freshBits(reg2, orig, std); q != p || reg2.Stats().Builds != builds {
		t.Fatalf("an untouched copy of the values rebuilt or found another plan: %+v", reg2.Stats())
	}
	reg2.Release(p)
}

// TestRegistryTuneCountersInertForCSR: a standard-engine plan on the
// caller's order has nothing to prepare — its build records no ordering,
// permutation or split stage — while the other engines through the same
// registry record the stages they ran.
func TestRegistryTuneCountersInertForCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	a := testCSR(rng, 100, 4)
	reg := New(4)
	defer reg.Close()
	for _, opt := range []core.Options{
		{Engine: core.EngineStandard},
		{Engine: core.EngineStandard, Threads: 2},
		{Engine: core.EngineForwardBackward, BtB: true, Threads: 2},
		{Engine: core.EngineLevelBlocked},
	} {
		p, err := reg.Acquire(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		stages := st.ReorderTime + st.PermTime + st.SplitTime
		if inert := opt.Engine == core.EngineStandard; (stages == 0 && st.NumColors == 0 && st.NumLevels == 0) != inert {
			t.Fatalf("%+v: build stages %+v", opt, st)
		}
		if err := reg.Release(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAcquireCtxPreCanceled checks an already-canceled context fails
// fast with the wrapped cause, without inserting an entry or building.
func TestAcquireCtxPreCanceled(t *testing.T) {
	fx := makeFixtures(t, 1)[0]
	reg := New(4)
	defer reg.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := reg.AcquireCtx(ctx, fx.a, churnOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("AcquireCtx with canceled context: got %v, want context.Canceled", err)
	}
	s := reg.Stats()
	if s.Entries != 0 || s.Builds != 0 || s.Canceled != 1 {
		t.Fatalf("pre-canceled Acquire left state behind: stats=%+v", s)
	}
}

// TestAcquireCtxCanceledWhileCoalesced is the satellite contract: a
// caller coalesced onto another caller's slow in-flight build abandons
// the wait when its context fires, while the build itself completes
// and keeps serving the remaining (and future) callers.
func TestAcquireCtxCanceledWhileCoalesced(t *testing.T) {
	fx := makeFixtures(t, 1)[0]
	reg := New(4)
	defer reg.Close()
	opt := core.BuildOptions(churnOptions()).Canonical()
	key := Fingerprint(fx.a, opt)

	// Plant an in-flight entry under the exact key AcquireCtx computes,
	// standing in for a flight owner stuck in a slow NewPlan.
	e := &entry{key: key, refs: 1, done: make(chan struct{})}
	reg.mu.Lock()
	e.elem = reg.lru.PushFront(e)
	reg.entries[key] = e
	reg.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := reg.AcquireCtx(ctx, fx.a, churnOptions())
		errc <- err
	}()
	// Wait until the caller has actually joined the flight, then fire
	// its context.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("AcquireCtx never coalesced onto the planted build")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned wait returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AcquireCtx still blocked after cancellation: wait is uncancellable")
	}
	reg.mu.Lock()
	refs := e.refs
	reg.mu.Unlock()
	if refs != 1 {
		t.Fatalf("entry refs = %d after abandoned wait, want 1 (owner only)", refs)
	}

	// The owner finishes: the entry must serve later Acquires normally.
	p, err := core.NewPlan(fx.a, churnOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg.mu.Lock()
	e.plan = p
	reg.byPlan[p] = e
	close(e.done)
	reg.mu.Unlock()

	got, err := reg.Acquire(fx.a, churnOptions())
	if err != nil {
		t.Fatalf("Acquire after completed build: %v", err)
	}
	if got != p {
		t.Fatal("Acquire after completed build returned a different plan")
	}
	fx.checkPlan(t, got)
	if err := reg.Release(got); err != nil {
		t.Fatal(err)
	}
	if err := reg.Release(p); err != nil { // the planted owner's reference
		t.Fatal(err)
	}
	s := reg.Stats()
	if s.Canceled != 1 || s.Hits != 1 {
		t.Fatalf("stats after abandoned wait: %+v, want Canceled=1 Hits=1", s)
	}
}

// TestAcquireCtxChurn races deadline-carrying and background Acquires
// of one key: every success must return a usable plan, every failure
// must wrap a context error, and the registry must stay consistent.
// Run under -race in CI.
func TestAcquireCtxChurn(t *testing.T) {
	fx := makeFixtures(t, 1)[0]
	reg := New(2)
	defer reg.Close()
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if g%3 == 0 {
					// A third of the callers carry tight, jittered
					// deadlines that land before, during, and after the
					// singleflight wait.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%5)*100*time.Microsecond)
				}
				p, err := reg.AcquireCtx(ctx, fx.a, churnOptions())
				if err != nil {
					cancel()
					if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
						t.Errorf("AcquireCtx: unexpected error %v", err)
						return
					}
					continue
				}
				fx.checkPlan(t, p)
				if err := reg.Release(p); err != nil {
					t.Errorf("Release: %v", err)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	s := reg.Stats()
	if s.Builds != s.Misses {
		t.Fatalf("builds %d != misses %d: singleflight broke under cancellation churn", s.Builds, s.Misses)
	}
}

// TestAcquireKey covers the handle form of Acquire: only a finished,
// successful build under exactly that key is a hit — counted, touched
// in the LRU, paired with Release — and every other state of the key is
// ErrNotCached, with nothing counted and no entry created.
func TestAcquireKey(t *testing.T) {
	fx := makeFixtures(t, 2)
	ctx := context.Background()
	key := Fingerprint(fx[0].a, churnOptions())
	reg := New(1)

	if _, err := reg.AcquireKey(ctx, key); !errors.Is(err, ErrNotCached) {
		t.Fatalf("absent key: got %v, want ErrNotCached", err)
	}

	// Still building: AcquireKey does not join the flight.
	building := &entry{key: key, refs: 1, done: make(chan struct{})}
	reg.mu.Lock()
	building.elem = reg.lru.PushFront(building)
	reg.entries[key] = building
	reg.mu.Unlock()
	if _, err := reg.AcquireKey(ctx, key); !errors.Is(err, ErrNotCached) {
		t.Fatalf("key still building: got %v, want ErrNotCached", err)
	}
	// Finished, but failed (a failed owner unlinks its entry; this is the
	// window before it does).
	building.err = errors.New("build failed")
	close(building.done)
	if _, err := reg.AcquireKey(ctx, key); !errors.Is(err, ErrNotCached) {
		t.Fatalf("failed build: got %v, want ErrNotCached", err)
	}
	reg.mu.Lock()
	reg.unlinkLocked(building)
	reg.mu.Unlock()
	if s := reg.Stats(); s.Lookups() != 0 || s.Entries != 0 {
		t.Fatalf("misses by key left state behind: %+v", s)
	}

	// Built: a hit on the same plan object, by key alone.
	p, err := reg.Acquire(fx[0].a, churnOptions())
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := reg.AcquireKey(canceled, key); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: got %v, want context.Canceled", err)
	}
	byKey, err := reg.AcquireKey(ctx, key)
	if err != nil || byKey != p {
		t.Fatalf("built key: plan %p (want %p), err %v", byKey, p, err)
	}
	fx[0].checkPlan(t, byKey)
	if s := reg.Stats(); s.Hits != 1 || s.Misses != 1 || s.Builds != 1 || s.Canceled != 1 || s.Live != 1 {
		t.Fatalf("after one build and one hit by key: %+v", s)
	}

	// Both references are real: the entry, evicted by the next build,
	// stays open until the second Release.
	other, err := reg.Acquire(fx[1].a, churnOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AcquireKey(ctx, key); !errors.Is(err, ErrNotCached) {
		t.Fatalf("evicted key: got %v, want ErrNotCached", err)
	}
	if err := reg.Release(p); err != nil || p.Closed() {
		t.Fatalf("first Release: err %v, closed %v", err, p.Closed())
	}
	if err := reg.Release(byKey); err != nil || !p.Closed() {
		t.Fatalf("second Release: err %v, closed %v", err, p.Closed())
	}
	if err := reg.Release(byKey); !errors.Is(err, ErrNotAcquired) {
		t.Fatalf("third Release: got %v, want ErrNotAcquired", err)
	}
	if err := reg.Release(other); err != nil {
		t.Fatal(err)
	}

	reg.Close()
	if _, err := reg.AcquireKey(ctx, Fingerprint(fx[1].a, churnOptions())); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("closed registry: got %v, want ErrRegistryClosed", err)
	}
}
