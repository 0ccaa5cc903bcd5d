package registry

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fbmpk/internal/core"
	"fbmpk/internal/sparse"
)

// History-level correctness of the registry state machine (ROADMAP
// 4(b)): seeded random sequences of Acquire / AcquireKey / UpdateValues
// / Release / Close, with capacity eviction arising from the mix, run in
// lockstep against a small reference model. After every step the
// outcome, the plan's result bits and every counter must be the
// model's.

const (
	modelStructs  = 3
	modelValues   = 2
	modelCapacity = 3
)

// modelBed is the fixed world the sequences run over: 3 structures x 2
// value sets, each with its key and the bits a fresh plan computes.
type modelBed struct {
	a    [modelStructs][modelValues]*sparse.CSR
	key  [modelStructs][modelValues]Key
	want [modelStructs][modelValues][]float64
	x    []float64
}

func newModelBed(t testing.TB) *modelBed {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	b := &modelBed{x: make([]float64, churnN)}
	for i := range b.x {
		b.x[i] = rng.NormFloat64()
	}
	for s := range b.a {
		base := testCSR(rng, churnN, 3+s)
		for v := range b.a[s] {
			a := valueVariant(base, 1+0.5*float64(v), 0.125*float64(v))
			p, err := core.NewPlan(a, churnOptions())
			if err != nil {
				t.Fatal(err)
			}
			if b.want[s][v], err = p.MPK(b.x, churnPower); err != nil {
				t.Fatal(err)
			}
			p.Close()
			b.a[s][v], b.key[s][v] = a, Fingerprint(a, churnOptions())
		}
	}
	return b
}

// valueSet runs p once and returns which of structure s's value sets
// its result is, bitwise, the fresh-plan result of; -1 for neither.
func (b *modelBed) valueSet(t testing.TB, p *core.Plan, s int) int {
	t.Helper()
	y, err := p.MPK(b.x, churnPower)
	if err != nil {
		t.Errorf("MPK on a held plan: %v", err)
		return -1
	}
	for v := range b.want[s] {
		if slices.Equal(y, b.want[s][v]) {
			return v
		}
	}
	return -1
}

// refEntry is the model's cached plan: which structure, which value set
// it holds now (an in-place update moves v), and who holds it.
type refEntry struct {
	s, v    int
	refs    int
	evicted bool
}

// refRegistry is the map-backed reference: what the registry's
// documentation says, in as few lines as say it.
type refRegistry struct {
	closed    bool
	lru       []*refEntry // front first
	structIdx map[int]int // structure -> value set of the entry an update swaps
	stats     Stats
}

func (m *refRegistry) find(s, v int) *refEntry {
	for _, e := range m.lru {
		if e.s == s && e.v == v {
			return e
		}
	}
	return nil
}

func (m *refRegistry) touch(e *refEntry) {
	for i, x := range m.lru {
		if x == e {
			copy(m.lru[1:i+1], m.lru[:i])
			m.lru[0] = e
			return
		}
	}
}

func (m *refRegistry) unlink(e *refEntry) {
	e.evicted = true
	if v, ok := m.structIdx[e.s]; ok && v == e.v {
		delete(m.structIdx, e.s)
	}
	for i, x := range m.lru {
		if x == e {
			m.lru = append(m.lru[:i], m.lru[i+1:]...)
			break
		}
	}
	m.stats.Evictions++
}

// acquire is Acquire past the closed check: a hit, or a build that may
// push the least recently used entries out.
func (m *refRegistry) acquire(s, v int) *refEntry {
	if e := m.find(s, v); e != nil {
		m.stats.Hits++
		e.refs++
		m.touch(e)
		return e
	}
	m.stats.Misses++
	m.stats.Builds++
	e := &refEntry{s: s, v: v, refs: 1}
	m.lru = append([]*refEntry{e}, m.lru...)
	m.structIdx[s] = v
	for len(m.lru) > modelCapacity {
		m.unlink(m.lru[len(m.lru)-1])
	}
	return e
}

// update is UpdateValues past the closed check; the bool is "in place".
func (m *refRegistry) update(s, v int) (*refEntry, bool) {
	if m.find(s, v) != nil {
		return m.acquire(s, v), false // these values are cached: a plain hit
	}
	cur, ok := m.structIdx[s]
	if !ok {
		m.stats.Rebuilt++
		return m.acquire(s, v), false
	}
	e := m.find(s, cur)
	e.refs++
	e.v = v
	m.structIdx[s] = v
	m.touch(e)
	m.stats.Updated++
	return e, true
}

func (m *refRegistry) snapshot() Stats {
	st := m.stats
	st.Capacity, st.Entries = modelCapacity, len(m.lru)
	for _, e := range m.lru {
		if e.refs > 0 {
			st.Live++
		}
	}
	return st
}

// held is one reference the test holds: the real plan, the model entry
// behind it, and the value set it was obtained under.
type held struct {
	p *core.Plan
	e *refEntry
	v int
}

func TestRegistryHistoryModel(t *testing.T) {
	b := newModelBed(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	heldAcrossUpdate := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg, m := New(modelCapacity), &refRegistry{structIdx: map[int]int{}}
		var hold []held
		// take checks a successful acquisition against the model's and
		// keeps the reference: the plan must compute, bitwise, what a
		// fresh plan on the matrix of that key computes.
		take := func(step int, what string, p *core.Plan, err error, e *refEntry, s, v int) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d step %d: %s(%d,%d): %v", seed, step, what, s, v, err)
			}
			if b.valueSet(t, p, s) != v {
				t.Fatalf("seed %d step %d: %s(%d,%d) returned a plan that does not compute that matrix", seed, step, what, s, v)
			}
			hold = append(hold, held{p: p, e: e, v: v})
		}
		wantClosed := func(step int, what string, err error) {
			t.Helper()
			if !errors.Is(err, ErrRegistryClosed) {
				t.Fatalf("seed %d step %d: %s on a closed registry: %v", seed, step, what, err)
			}
		}
		for step := 0; step < 400; step++ {
			s, v := rng.Intn(modelStructs), rng.Intn(modelValues)
			switch op := rng.Intn(100); {
			case op < 25: // Acquire
				p, err := reg.Acquire(b.a[s][v], churnOptions())
				if m.closed {
					wantClosed(step, "Acquire", err)
					break
				}
				take(step, "Acquire", p, err, m.acquire(s, v), s, v)
			case op < 50: // AcquireKey: a hit exactly when the model has the key
				p, err := reg.AcquireKey(context.Background(), b.key[s][v])
				if m.closed {
					wantClosed(step, "AcquireKey", err)
					break
				}
				if m.find(s, v) == nil {
					if !errors.Is(err, ErrNotCached) {
						t.Fatalf("seed %d step %d: AcquireKey(%d,%d) of an uncached key: %v", seed, step, s, v, err)
					}
					break
				}
				take(step, "AcquireKey", p, err, m.acquire(s, v), s, v)
			case op < 65: // UpdateValues, then the re-key seen through AcquireKey
				old, had := m.structIdx[s]
				p, key, updated, err := reg.UpdateValuesKeyed(context.Background(), b.a[s][v], churnOptions())
				if m.closed {
					wantClosed(step, "UpdateValues", err)
					break
				}
				e, inPlace := m.update(s, v)
				if updated != inPlace || key != b.key[s][v] {
					t.Fatalf("seed %d step %d: UpdateValues(%d,%d) in place %v, model %v; key ok %v",
						seed, step, s, v, updated, inPlace, key == b.key[s][v])
				}
				take(step, "UpdateValues", p, err, e, s, v)
				if inPlace {
					if !had || old == v {
						t.Fatalf("seed %d step %d: model updated in place from %v", seed, step, old)
					}
					if _, err := reg.AcquireKey(context.Background(), b.key[s][old]); !errors.Is(err, ErrNotCached) {
						t.Fatalf("seed %d step %d: old key still acquirable after the re-key: %v", seed, step, err)
					}
					p2, err := reg.AcquireKey(context.Background(), key)
					if p2 != p {
						t.Fatalf("seed %d step %d: new key does not hit the updated plan (%v)", seed, step, err)
					}
					take(step, "AcquireKey after re-key", p2, err, m.acquire(s, v), s, v)
				}
			case op < 70: // a caller that already gave up
				_, err1 := reg.AcquireCtx(canceled, b.a[s][v], churnOptions())
				_, err2 := reg.AcquireKey(canceled, b.key[s][v])
				if !errors.Is(err1, context.Canceled) || !errors.Is(err2, context.Canceled) {
					t.Fatalf("seed %d step %d: canceled acquires: %v, %v", seed, step, err1, err2)
				}
				m.stats.Canceled += 2
			case op < 98: // Release
				if len(hold) == 0 {
					break
				}
				i := rng.Intn(len(hold))
				h := hold[i]
				hold = append(hold[:i], hold[i+1:]...)
				// A held plan is alive whatever happened to its entry, and
				// holds the values the model says its entry holds now. When
				// those are not the ones it was obtained under, an in-place
				// update went by while the reference was held — the contract
				// TestHeldReferenceExecutesOnLatestValues states.
				if h.p.Closed() || b.valueSet(t, h.p, h.e.s) != h.e.v {
					t.Fatalf("seed %d step %d: held plan closed (%v) or off the model's values", seed, step, h.p.Closed())
				}
				if h.e.v != h.v {
					heldAcrossUpdate++
				}
				if err := reg.Release(h.p); err != nil {
					t.Fatalf("seed %d step %d: Release: %v", seed, step, err)
				}
				h.e.refs--
				if drained := h.e.evicted && h.e.refs == 0; h.p.Closed() != drained {
					t.Fatalf("seed %d step %d: plan closed = %v after Release, want %v", seed, step, h.p.Closed(), drained)
				}
			default: // Close; once drained, start over on a fresh registry
				reg.Close()
				if !m.closed {
					m.closed = true
					for len(m.lru) > 0 {
						m.unlink(m.lru[0])
					}
				}
			}
			got := reg.Stats()
			got.BuildTime = 0
			if want := m.snapshot(); got != want {
				t.Fatalf("seed %d step %d: counters diverge from the model:\n got %+v\nwant %+v", seed, step, got, want)
			}
			if m.closed && len(hold) == 0 {
				reg, m = New(modelCapacity), &refRegistry{structIdx: map[int]int{}}
			}
		}
		for _, h := range hold {
			if err := reg.Release(h.p); err != nil {
				t.Fatalf("seed %d: final Release: %v", seed, err)
			}
		}
		reg.Close()
	}
	t.Logf("%d held references executed on values newer than their key's", heldAcrossUpdate)
}

// TestHeldReferenceExecutesOnLatestValues holds the registry to the
// contract its godoc states: a reference is to the plan, not to a value
// generation. One acquired under key K1 and still held when UpdateValues
// swaps the same plan to K2 executes on K2's values from then on — only
// executions already admitted finish on the old epoch (core's
// TestUpdateValues* and the root churn audit hold that half) — and K1
// stops being acquirable.
func TestHeldReferenceExecutesOnLatestValues(t *testing.T) {
	b := newModelBed(t)
	reg := New(0)
	defer reg.Close()
	p1, err := reg.AcquireCtx(context.Background(), b.a[0][0], churnOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Release(p1) //nolint:errcheck // release of a held plan
	if got := b.valueSet(t, p1, 0); got != 0 {
		t.Fatalf("before the update the held plan computes value set %d, want 0", got)
	}
	p2, updated, err := reg.UpdateValues(b.a[0][1], churnOptions())
	if err != nil || !updated || p2 != p1 {
		t.Fatalf("UpdateValues: in place %v, same plan %v, err %v", updated, p2 == p1, err)
	}
	defer reg.Release(p2) //nolint:errcheck // release of a held plan
	if got := b.valueSet(t, p1, 0); got != 1 {
		t.Fatalf("after the update the held plan computes value set %d, want 1 (the latest)", got)
	}
	if _, err := reg.AcquireKey(context.Background(), b.key[0][0]); !errors.Is(err, ErrNotCached) {
		t.Fatalf("the old key after the update: %v, want ErrNotCached", err)
	}
}

// TestRegistryHistoryConcurrent runs the same operation mix from eight
// goroutines (under -race in ci.sh). No model can say which interleaving
// happened, so it checks invariants only: every plan handed out computes
// one of its structure's two value sets and nothing else (which one
// depends on the updates that went by), no held plan is ever closed,
// every reference releases, and the counters add up.
func TestRegistryHistoryConcurrent(t *testing.T) {
	b := newModelBed(t)
	reg := New(modelCapacity)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lookups uint64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var hold []held
			got := uint64(0)
			for step := 0; step < 150; step++ {
				s, v := rng.Intn(modelStructs), rng.Intn(modelValues)
				var p *core.Plan
				var err error
				switch op := rng.Intn(100); {
				case op < 30:
					p, err = reg.Acquire(b.a[s][v], churnOptions())
				case op < 55:
					if p, err = reg.AcquireKey(context.Background(), b.key[s][v]); errors.Is(err, ErrNotCached) {
						continue
					}
				case op < 70:
					var key Key
					var inPlace bool
					p, key, inPlace, err = reg.UpdateValuesKeyed(context.Background(), b.a[s][v], churnOptions())
					if err == nil && key != b.key[s][v] {
						t.Errorf("UpdateValuesKeyed(%d,%d) returned another matrix's key", s, v)
					}
					if inPlace {
						got-- // an in-place swap is not a lookup
					}
				default:
					if len(hold) > 0 {
						h := hold[len(hold)-1]
						hold = hold[:len(hold)-1]
						if h.p.Closed() {
							t.Errorf("held plan closed before its Release")
						}
						if err := reg.Release(h.p); err != nil {
							t.Errorf("Release: %v", err)
						}
					}
					continue
				}
				if err != nil {
					t.Errorf("goroutine %d step %d: %v", seed, step, err)
					return
				}
				got++
				if b.valueSet(t, p, s) < 0 {
					t.Errorf("goroutine %d step %d: plan for structure %d computes neither of its value sets", seed, step, s)
				}
				hold = append(hold, held{p: p})
			}
			for _, h := range hold {
				if err := reg.Release(h.p); err != nil {
					t.Errorf("final Release: %v", err)
				}
			}
			mu.Lock()
			lookups += got
			mu.Unlock()
		}(int64(g + 1))
	}
	wg.Wait()
	st := reg.Stats()
	if st.Live != 0 || st.Entries > modelCapacity || st.Lookups() != lookups ||
		st.Builds+st.BuildFailures != st.Misses || st.BuildFailures != 0 {
		t.Fatalf("after %d successful lookups, all released: %+v", lookups, st)
	}
	reg.Close()
	if st := reg.Stats(); st.Entries != 0 {
		t.Fatalf("entries after Close: %+v", st)
	}
}
