package registry

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"slices"
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
	// calls, so re-keys land in the order the swaps did.
	structIdx map[Key]Key
	updateMu  sync.Mutex
	// swapHook, nil outside tests, runs after an in-place update pins
	// its entry and before it swaps the values.
	swapHook func()

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
}

// entry is one cached (or in-flight) plan. refs counts outstanding
// Acquires not yet Released. evicted entries have left the map/LRU
// but stay alive until refs drains to zero; closableLocked then hands
// the plan to whoever dropped the last reference.
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
	opt := core.BuildOptions(opts...).Canonical()
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
	sKey, key, err := timedDigests(ctx, a, opt, true)
	if err != nil {
		return nil, fmt.Errorf("registry: Acquire: %w: %v", core.ErrInvalidMatrix, err)
	}
	return r.acquire(ctx, a, opt, sKey, key)
}

// timedDigests makes the one content pass over a (contentDigests; with
// validate it is CSR.Validate too, and err its error) and returns the
// two keys composed from its digests — the (structure, options) key
// that finds a plan to update in place, and the plan key — recording
// the whole pass as the request timeline's registry.fingerprint phase.
// opt must already be canonicalized.
func timedDigests(ctx context.Context, a *sparse.CSR, opt core.Options, validate bool) (sKey, key Key, err error) {
	tl := events.TimelineFromContext(ctx)
	var hashStart time.Time
	if tl != nil {
		hashStart = time.Now()
	}
	structKey, valKey, err := contentDigests(a, validate)
	if err == nil {
		sKey = structOptKeyFromStruct(structKey, a, opt)
		key = fingerprintWithParts(structKey, valKey, a, opt)
	}
	if tl != nil {
		tl.Phase("registry.fingerprint", hashStart, time.Now())
	}
	return sKey, key, err
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
// coalesced wait, or build under the keys the caller computed from a.
func (r *Registry) acquire(ctx context.Context, a *sparse.CSR, opt core.Options, sKey, key Key) (*core.Plan, error) {
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
	e := &entry{key: key, sKey: sKey, refs: 1, done: make(chan struct{})}
	e.elem = r.lru.PushFront(e)
	r.entries[key] = e
	r.structIdx[e.sKey] = key
	r.misses++
	toClose := r.evictOverflowLocked()
	r.mu.Unlock()
	closePlans(toClose...)

	buildStart := time.Now()
	// Every caller validated a on the way here, so the build need not. A
	// cached standard plan runs on its own arrays: the content its key names.
	if opt.Engine == core.EngineStandard {
		a = &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: slices.Clone(a.RowPtr), ColIdx: slices.Clone(a.ColIdx), Val: slices.Clone(a.Val)}
	}
	plan, err := core.NewPlan(a, opt, core.WithValidated(a))
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
	}
	close(e.done)
	bail := err == nil && ctx.Err() != nil
	var orphan *core.Plan
	if bail {
		// The owner's context fired mid-build. The plan is finished and
		// cached for the waiters that coalesced onto this flight; only
		// this caller's reference and result are abandoned.
		e.refs--
		r.canceled++
		orphan = r.closableLocked(e)
	}
	r.mu.Unlock()
	closePlans(orphan)
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
	toClose := r.closableLocked(e)
	r.mu.Unlock()
	closePlans(toClose)
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
	toClose := r.closableLocked(e)
	r.mu.Unlock()
	closePlans(toClose)
	return nil
}

// closableLocked is the one rule by which the registry closes a plan:
// once e is evicted (by capacity or Close), built and unreferenced, it
// unregisters e's plan and returns it for the caller to close after
// unlocking (Close drains in-flight executions, so it must not run
// under the lock); otherwise it returns nil. Every path that can leave
// a built plan evicted and unreferenced asks it.
func (r *Registry) closableLocked(e *entry) *core.Plan {
	if !e.evicted || e.refs > 0 || e.plan == nil {
		return nil
	}
	delete(r.byPlan, e.plan)
	return e.plan
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
		toClose = append(toClose, r.closableLocked(e))
	}
	return toClose
}

// closePlans closes the plans closableLocked returned, after the
// caller unlocked; nil plans are skipped.
func closePlans(ps ...*core.Plan) {
	for _, p := range ps {
		if p != nil {
			p.Close()
		}
	}
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
	}
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
		toClose = append(toClose, r.closableLocked(e))
	}
	r.mu.Unlock()
	closePlans(toClose...)
}
