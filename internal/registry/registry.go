package registry

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"fbmpk/internal/core"
	"fbmpk/internal/events"
	"fbmpk/internal/sparse"
)

// Typed errors returned by Registry methods; match with errors.Is.
var (
	// ErrRegistryClosed reports an Acquire on a closed registry.
	ErrRegistryClosed = errors.New("registry is closed")
	// ErrNotAcquired reports a Release of a plan the registry does not
	// hold a live reference for (never acquired, or already fully
	// released).
	ErrNotAcquired = errors.New("plan not acquired from this registry")
	// ErrNotCached reports an AcquireKey for a key with no built plan
	// behind it: never built, evicted, still building, failed, or re-keyed
	// by a value update. The caller falls back to Acquire with the matrix.
	ErrNotCached = errors.New("no built plan cached under this key")
)

// Registry is a ref-counted, LRU-evicting cache of prepared Plans
// keyed by the content Fingerprint of (matrix, canonicalized
// options).
//
//   - Acquire returns the cached plan on a hit, skipping
//     preprocessing entirely; on a miss it builds one.
//   - Concurrent Acquires of the same key coalesce onto a single
//     build (singleflight): one caller builds, the rest wait on the
//     same entry.
//   - Release drops a reference. Eviction (capacity pressure or
//     registry Close) never closes a plan that is still referenced;
//     the plan is closed by whichever Release drains the last
//     reference. Plan.Close is idempotent, so a belt-and-braces
//     caller that also closes an acquired plan is tolerated (but the
//     registry then drops the entry on its next eviction).
//
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	capacity int
	closed   bool
	entries  map[Key]*entry
	byPlan   map[*core.Plan]*entry
	lru      *list.List // of *entry; front = most recently used

	// structIdx maps the (structure, options) composite key of each
	// cached entry to its current content Key, so UpdateValues can find
	// the plan whose values to swap regardless of which value
	// generation it currently holds. updateMu serializes UpdateValues
	// calls (updates are rare next to acquires; one at a time keeps the
	// two-phase re-key simple).
	structIdx map[Key]Key
	updateMu  sync.Mutex

	hits          uint64
	misses        uint64
	coalesced     uint64
	canceled      uint64
	builds        uint64
	buildFailures uint64
	evictions     uint64
	updated       uint64
	rebuilt       uint64
	buildTime     time.Duration

	// tunings and engineTunings cache the two autotuner verdicts — the
	// standard engine's backend, EngineAuto's engine — keyed by
	// StructureFingerprint. A plan tunes one or the other, never both,
	// so each is cached and replayed on its own. Verdicts are a few
	// hundred bytes and survive plan LRU eviction on purpose:
	// re-acquiring an evicted matrix re-runs preprocessing but never
	// re-pays tuner sampling.
	tunings       map[Key]core.TuneDecision
	engineTunings map[Key]core.EngineDecision
	tuneHits      uint64
	tuneMisses    uint64
}

// entry is one cached (or in-flight) plan. refs counts outstanding
// Acquires not yet Released. evicted entries have left the map/LRU
// but stay alive until refs drains to zero, at which point the last
// Release closes the plan.
type entry struct {
	key     Key
	sKey    Key // (structure, options) composite; see Registry.structIdx
	refs    int
	evicted bool
	elem    *list.Element // nil once evicted

	done chan struct{} // closed when build finishes (plan/err valid)
	plan *core.Plan
	err  error
}

// built reports whether the entry's build has finished (plan/err valid).
func (e *entry) built() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Stats is a point-in-time snapshot of registry counters.
type Stats struct {
	Capacity int `json:"capacity"` // 0 = unbounded
	Entries  int `json:"entries"`  // cached entries (ready or building)
	Live     int `json:"live"`     // entries with outstanding references

	Hits          uint64 `json:"hits"`      // served from cache, build already done
	Misses        uint64 `json:"misses"`    // triggered a build
	Coalesced     uint64 `json:"coalesced"` // joined another caller's in-flight build
	Canceled      uint64 `json:"canceled"`  // AcquireCtx calls abandoned on context cancellation
	Builds        uint64 `json:"builds"`    // successful plan constructions
	BuildFailures uint64 `json:"build_failures"`
	Evictions     uint64 `json:"evictions"`

	// Updated counts UpdateValues calls served by an in-place epoch
	// swap on a cached plan (structure unchanged); Rebuilt counts
	// UpdateValues calls that fell back to a full plan build (structure
	// delta, or no updatable entry cached).
	Updated uint64 `json:"updated"`
	Rebuilt uint64 `json:"rebuilt"`

	// BuildTime is the cumulative wall time of successful builds —
	// the preprocessing cost the cache's hits avoided paying again.
	BuildTime time.Duration `json:"build_time_ns"`

	// TuneHits counts BackendAuto and EngineAuto builds served a cached
	// autotuner verdict (zero sampling); TuneMisses counts builds that
	// ran their tuner; TuneVerdicts is the number of structure-keyed
	// verdicts (backend and engine) currently cached.
	TuneHits     uint64 `json:"tune_hits"`
	TuneMisses   uint64 `json:"tune_misses"`
	TuneVerdicts int    `json:"tune_verdicts"`
}

// Lookups returns the total number of Acquire key lookups.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses + s.Coalesced }

// HitRate is the fraction of lookups that did not trigger a build
// (hits plus coalesced waits), in [0, 1]. Zero when no lookups yet.
func (s Stats) HitRate() float64 {
	total := s.Lookups()
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// New creates a registry holding at most capacity plans; capacity <= 0
// means unbounded (no LRU eviction, plans stay cached until Close).
func New(capacity int) *Registry {
	if capacity < 0 {
		capacity = 0
	}
	return &Registry{
		capacity:  capacity,
		entries:   make(map[Key]*entry),
		byPlan:    make(map[*core.Plan]*entry),
		lru:       list.New(),
		structIdx: make(map[Key]Key),

		tunings:       make(map[Key]core.TuneDecision),
		engineTunings: make(map[Key]core.EngineDecision),
	}
}

// Acquire returns a plan for matrix a built with opts, taking one
// reference that the caller must pair with Release. The key is
// Fingerprint(a, opts): a cache hit returns the already-built plan
// without touching the matrix beyond hashing it; concurrent misses on
// one key coalesce onto a single build.
//
// The caller must not mutate a or close the returned plan while the
// reference is held (Release, not Close, is the hand-back). The
// reference is to the plan, not to a value generation: if UpdateValues
// swaps this plan's values in place while it is held, executions started
// afterwards run on the latest values; only executions already admitted
// finish on the values they were admitted under.
func (r *Registry) Acquire(a *sparse.CSR, opts ...core.Option) (*core.Plan, error) {
	return r.AcquireCtx(context.Background(), a, opts...)
}

// AcquireCtx is Acquire honoring ctx. Cancellation is observed before
// the lookup and — the case Acquire could block on uncancellably —
// while waiting for another caller's in-flight singleflight build: the
// waiter abandons the wait with an error wrapping ctx.Err() while the
// build itself runs to completion for the owner and any remaining
// waiters (and stays cached). A flight owner whose context fires
// mid-build likewise finishes the build for the cache, releases its
// reference, and returns the cancellation error.
func (r *Registry) AcquireCtx(ctx context.Context, a *sparse.CSR, opts ...core.Option) (*core.Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt := Canonicalize(core.BuildOptions(opts...))
	if a == nil {
		return nil, fmt.Errorf("registry: Acquire: nil matrix: %w", core.ErrInvalidMatrix)
	}
	if err := ctx.Err(); err != nil {
		// A malformed matrix outranks a canceled context, as it did when
		// validation was a pass of its own ahead of this check.
		if verr := a.Validate(); verr != nil {
			return nil, fmt.Errorf("registry: Acquire: %w: %v", core.ErrInvalidMatrix, verr)
		}
		return nil, r.canceledErr("Acquire canceled", err)
	}
	// One pass validates and hashes, so a malformed CSR fails with the
	// same typed error NewPlan would return instead of getting a key.
	structKey, key, err := timedDigests(ctx, a, opt, true)
	if err != nil {
		return nil, fmt.Errorf("registry: Acquire: %w: %v", core.ErrInvalidMatrix, err)
	}
	return r.acquire(ctx, a, opt, structKey, key)
}

// timedDigests makes the one content pass over a (contentDigests; with
// validate it is CSR.Validate too, and err its error) and returns the
// structure digest with the plan key composed from it and the values
// digest, recording the whole pass as the request timeline's
// registry.fingerprint phase. The structure digest also feeds the miss
// entry's structure+options key and the tuner verdict caches, which are
// keyed by structure alone so value updates and option changes reuse the
// same tuning decision. opt must already be canonicalized.
func timedDigests(ctx context.Context, a *sparse.CSR, opt core.Options, validate bool) (structKey, key Key, err error) {
	tl := events.TimelineFromContext(ctx)
	var hashStart time.Time
	if tl != nil {
		hashStart = time.Now()
	}
	structKey, valKey, err := contentDigests(a, validate)
	if err == nil {
		key = fingerprintWithParts(structKey, valKey, a, opt)
	}
	if tl != nil {
		tl.Phase("registry.fingerprint", hashStart, time.Now())
	}
	return structKey, key, err
}

// canceledErr counts one abandoned call and wraps the context error.
func (r *Registry) canceledErr(what string, err error) error {
	r.mu.Lock()
	r.canceled++
	r.mu.Unlock()
	return fmt.Errorf("registry: %s: %w", what, err)
}

// AcquireKey returns the built plan cached under key, taking one
// reference the caller must pair with Release — the handle form of
// Acquire for a caller that kept the key (PlanFingerprint's result, or
// the one UpdateValuesKeyed returned) of a matrix it has not mutated
// since: no matrix is passed, so nothing is validated or hashed. Only a
// finished, successful build is a hit (counted in Stats.Hits); a key that
// is absent, evicted, still building, failed, or re-keyed away by a
// value update returns ErrNotCached, on which the caller falls back to
// Acquire with the matrix. As with Acquire, the reference follows the
// plan through later in-place updates: it executes on the latest values,
// not on the ones key named when it was taken.
func (r *Registry) AcquireKey(ctx context.Context, key Key) (*core.Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, r.canceledErr("AcquireKey canceled", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("registry: AcquireKey: %w", ErrRegistryClosed)
	}
	e, ok := r.entries[key]
	if !ok || !e.built() || e.err != nil {
		return nil, fmt.Errorf("registry: AcquireKey %s: %w", key, ErrNotCached)
	}
	e.refs++
	r.lru.MoveToFront(e.elem)
	r.hits++
	events.TimelineFromContext(ctx).Mark("registry.hit", time.Now(), 0)
	return e.plan, nil
}

// acquire is AcquireCtx past validation and hashing: the lookup,
// coalesced wait, or build under a key the caller computed from a.
func (r *Registry) acquire(ctx context.Context, a *sparse.CSR, opt core.Options, structKey, key Key) (*core.Plan, error) {
	tl := events.TimelineFromContext(ctx)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: Acquire: %w", ErrRegistryClosed)
	}
	if e, ok := r.entries[key]; ok {
		e.refs++
		r.lru.MoveToFront(e.elem)
		built := e.built()
		if built {
			r.hits++
		} else {
			r.coalesced++
		}
		r.mu.Unlock()
		if !built {
			// Wait for the flight owner, but remain cancellable: a
			// waiter's deadline must not be hostage to the owner's
			// build time. The build completes regardless.
			var waitStart time.Time
			if tl != nil {
				waitStart = time.Now()
			}
			select {
			case <-e.done:
				if tl != nil {
					tl.Phase("registry.wait", waitStart, time.Now())
				}
			case <-ctx.Done():
				if tl != nil {
					tl.Phase("registry.wait", waitStart, time.Now())
				}
				r.abandonWait(e)
				return nil, fmt.Errorf("registry: Acquire canceled awaiting in-flight build: %w", ctx.Err())
			}
		} else {
			tl.Mark("registry.hit", time.Now(), 0)
		}
		if e.err != nil {
			// Failed build: the owner already unlinked the entry;
			// just drop our reference.
			r.mu.Lock()
			e.refs--
			r.mu.Unlock()
			return nil, e.err
		}
		return e.plan, nil
	}

	// Miss: insert a building entry and become the flight owner.
	e := &entry{key: key, sKey: structOptKeyFromStruct(structKey, a, opt), refs: 1, done: make(chan struct{})}
	e.elem = r.lru.PushFront(e)
	r.entries[key] = e
	r.structIdx[e.sKey] = key
	r.misses++
	// Every caller validated a on the way here, so the build need not.
	buildOpts := []core.Option{opt, core.WithValidated(a)}
	// opt is canonical, so BackendAuto means a standard-engine plan and
	// the two cases exclude each other. An engine verdict is only
	// replayed at the thread count it was measured at; any other counts
	// as a miss and is re-arbitrated (the persist below overwrites).
	switch {
	case opt.Backend == core.BackendAuto:
		if dec, ok := r.tunings[structKey]; ok {
			buildOpts = append(buildOpts, core.WithTunedDecision(dec))
			r.tuneHits++
		} else {
			r.tuneMisses++
		}
	case opt.Engine == core.EngineAuto:
		if dec, ok := r.engineTunings[structKey]; ok && dec.Threads == opt.Threads {
			buildOpts = append(buildOpts, core.WithEngineDecision(dec))
			r.tuneHits++
		} else {
			r.tuneMisses++
		}
	}
	toClose := r.evictOverflowLocked()
	r.mu.Unlock()
	for _, p := range toClose {
		p.Close()
	}

	buildStart := time.Now()
	plan, err := core.NewPlan(a, buildOpts...)
	elapsed := time.Since(buildStart)
	tl.Phase("registry.build", buildStart, buildStart.Add(elapsed))

	r.mu.Lock()
	e.plan, e.err = plan, err
	if err != nil {
		r.buildFailures++
		r.unlinkLocked(e)
		e.refs--
	} else {
		r.builds++
		r.buildTime += elapsed
		r.byPlan[plan] = e
		// Persist a fresh verdict for the next build of this structure.
		st := plan.Stats()
		if t := st.Tune; t != nil && !t.FromCache {
			r.tunings[structKey] = *t
		}
		if t := st.EngineTune; t != nil && !t.FromCache {
			r.engineTunings[structKey] = *t
		}
	}
	close(e.done)
	bail := err == nil && ctx.Err() != nil
	if bail {
		// The owner's context fired mid-build. The plan is finished and
		// cached for the waiters that coalesced onto this flight; only
		// this caller's reference and result are abandoned.
		e.refs--
		r.canceled++
	}
	shouldClose := err == nil && e.evicted && e.refs == 0
	r.mu.Unlock()
	if shouldClose {
		// Evicted (or registry-closed) while building and every waiter
		// already bailed: nobody holds it, tear it down now.
		r.closeEvicted(plan, e)
	}
	if bail {
		return nil, fmt.Errorf("registry: Acquire canceled during build: %w", ctx.Err())
	}
	return plan, err
}

// abandonWait drops the reference a canceled AcquireCtx waiter took on
// an in-flight entry. If the build happened to complete concurrently
// with the cancellation and the entry has since been evicted with no
// other holders, the plan is closed here — otherwise the flight owner
// (still mid-Acquire, holding its own reference) observes the drained
// refcount at build completion and handles teardown.
func (r *Registry) abandonWait(e *entry) {
	r.mu.Lock()
	e.refs--
	r.canceled++
	shouldClose := e.built() && e.err == nil && e.plan != nil && e.evicted && e.refs == 0
	p := e.plan
	r.mu.Unlock()
	if shouldClose {
		r.closeEvicted(p, e)
	}
}

// Release drops one reference taken by Acquire. When the entry has
// been evicted and this was the last reference, the plan is closed
// here (never under the registry lock).
func (r *Registry) Release(p *core.Plan) error {
	if p == nil {
		return fmt.Errorf("registry: Release: %w", ErrNotAcquired)
	}
	r.mu.Lock()
	e, ok := r.byPlan[p]
	if !ok || e.refs <= 0 {
		r.mu.Unlock()
		return fmt.Errorf("registry: Release: %w", ErrNotAcquired)
	}
	e.refs--
	shouldClose := e.evicted && e.refs == 0
	r.mu.Unlock()
	if shouldClose {
		r.closeEvicted(p, e)
	}
	return nil
}

// closeEvicted finalizes an evicted, fully released entry:
// closes the plan first (Close drains in-flight executions, so it
// must not run under the lock), then unregisters the plan pointer.
func (r *Registry) closeEvicted(p *core.Plan, e *entry) {
	p.Close()
	r.mu.Lock()
	if cur, ok := r.byPlan[p]; ok && cur == e {
		delete(r.byPlan, p)
	}
	r.mu.Unlock()
}

// evictOverflowLocked evicts least-recently-used entries until the
// capacity bound holds, returning any plans that must be closed by
// the caller after unlocking. Entries still referenced (or still
// building) are only marked evicted; their last Release closes them.
func (r *Registry) evictOverflowLocked() []*core.Plan {
	if r.capacity <= 0 {
		return nil
	}
	var toClose []*core.Plan
	for len(r.entries) > r.capacity {
		back := r.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		r.unlinkLocked(e)
		r.evictions++
		if e.refs == 0 && e.plan != nil {
			toClose = append(toClose, e.plan)
			delete(r.byPlan, e.plan)
		}
	}
	return toClose
}

// unlinkLocked removes e from the key map, the structure index, and
// the LRU list, and marks it evicted. Idempotent.
func (r *Registry) unlinkLocked(e *entry) {
	if e.evicted {
		return
	}
	e.evicted = true
	if cur, ok := r.entries[e.key]; ok && cur == e {
		delete(r.entries, e.key)
	}
	if cur, ok := r.structIdx[e.sKey]; ok && cur == e.key {
		delete(r.structIdx, e.sKey)
	}
	if e.elem != nil {
		r.lru.Remove(e.elem)
		e.elem = nil
	}
}

// Stats returns a snapshot of the registry counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	live := 0
	for _, e := range r.entries {
		if e.refs > 0 {
			live++
		}
	}
	return Stats{
		Capacity:      r.capacity,
		Entries:       len(r.entries),
		Live:          live,
		Hits:          r.hits,
		Misses:        r.misses,
		Coalesced:     r.coalesced,
		Canceled:      r.canceled,
		Builds:        r.builds,
		BuildFailures: r.buildFailures,
		Evictions:     r.evictions,
		Updated:       r.updated,
		Rebuilt:       r.rebuilt,
		BuildTime:     r.buildTime,
		TuneHits:      r.tuneHits,
		TuneMisses:    r.tuneMisses,
		TuneVerdicts:  len(r.tunings) + len(r.engineTunings),
	}
}

// Len returns the number of cached entries (ready or building).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Close evicts every entry and rejects future Acquires. Plans with no
// outstanding references are closed before Close returns; plans still
// held by callers (including in-flight builds) stay usable and are
// closed by their final Release. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	var toClose []*core.Plan
	for _, e := range r.entries {
		// Range over a copy-safe view: unlinkLocked deletes from the
		// map, which is permitted for the entry being visited.
		r.unlinkLocked(e)
		r.evictions++
		if e.refs == 0 && e.plan != nil {
			toClose = append(toClose, e.plan)
			delete(r.byPlan, e.plan)
		}
	}
	r.mu.Unlock()
	for _, p := range toClose {
		p.Close()
	}
}
