package registry

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fbmpk/internal/core"
	"fbmpk/internal/events"
	"fbmpk/internal/sparse"
)

// Value updates through the cache. A serving process that re-plans an
// evolving matrix would otherwise miss on every value generation (the
// content Key covers values), paying full preprocessing each time.
// UpdateValues instead locates the cached plan for the same
// (structure, options) via the structure index, swaps its value epoch
// in place (Plan.UpdateValues — an O(nnz) gather), and re-keys the
// entry from the old content fingerprint to the new one, so both the
// plan and its future Acquire hits survive the transition. When no
// updatable entry exists — structure delta, evicted, build still in
// flight or failed — the call degrades to a plain Acquire rebuild.
// Stats.Updated and Stats.Rebuilt count the two outcomes.

// UpdateValues returns a plan for matrix a built with opts, preferring
// an in-place value swap on the cached plan sharing a's structure and
// options over a fresh build. The boolean reports which happened: true
// means an existing plan was updated in place (its permutation, split
// and schedule all reused); false means the plan came from the ordinary
// Acquire path. Either way the caller holds one reference and must pair
// it with Release.
//
// In-flight executions on the updated plan finish on the values they
// were admitted under; see Plan.UpdateValues for the epoch model. Every
// other reference to that plan — taken by Acquire or AcquireKey before
// the update and still held — executes on a's values from here on: an
// in-place update moves the plan, and all its holders, to the latest
// values.
func (r *Registry) UpdateValues(a *sparse.CSR, opts ...core.Option) (*core.Plan, bool, error) {
	return r.UpdateValuesCtx(context.Background(), a, opts...)
}

// UpdateValuesCtx is UpdateValues honoring ctx: cancellation is
// observed before the swap starts and by any fallback Acquire build;
// the O(nnz) swap itself is not interrupted once started.
func (r *Registry) UpdateValuesCtx(ctx context.Context, a *sparse.CSR, opts ...core.Option) (*core.Plan, bool, error) {
	p, _, updated, err := r.UpdateValuesKeyed(ctx, a, opts...)
	return p, updated, err
}

// UpdateValuesKeyed is UpdateValuesCtx that also returns the content
// Key of (a, opts) — what AcquireKey takes for this matrix from here
// on — so a caller that stores matrices by key does not hash a second
// time to learn it. a is hashed exactly once per call, whichever way
// the update goes.
func (r *Registry) UpdateValuesKeyed(ctx context.Context, a *sparse.CSR, opts ...core.Option) (*core.Plan, Key, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt := core.BuildOptions(opts...).Canonical()
	if a == nil {
		return nil, Key{}, false, fmt.Errorf("registry: UpdateValues: nil matrix: %w", core.ErrInvalidMatrix)
	}
	// The hash-only content pass: the in-place path proves the structure
	// elementwise against the plan's validated original, and the Acquire
	// fallback validates before it builds. Hashing cuts the arrays by
	// their lengths alone, so it is safe on arbitrary input.
	if err := ctx.Err(); err != nil {
		return nil, Key{}, false, fmt.Errorf("registry: UpdateValues canceled: %w", err)
	}
	sKey, newKey, _ := timedDigests(ctx, a, opt, false)
	// viaAcquire is the way out when no in-place swap is needed or
	// possible: the ordinary Acquire path — a hit, a coalesced wait or a
	// build — under the digests computed above.
	viaAcquire := func() (*core.Plan, Key, bool, error) {
		if err := a.Validate(); err != nil {
			return nil, Key{}, false, fmt.Errorf("registry: UpdateValues: %w: %v", core.ErrInvalidMatrix, err)
		}
		p, err := r.acquire(ctx, a, opt, sKey, newKey)
		if err != nil {
			return nil, Key{}, false, err
		}
		return p, newKey, false, nil
	}

	// One update at a time, so re-keys land in the order the swaps did.
	r.updateMu.Lock()
	defer r.updateMu.Unlock()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, Key{}, false, fmt.Errorf("registry: UpdateValues: %w", ErrRegistryClosed)
	}
	if _, ok := r.entries[newKey]; ok {
		// These exact values are already cached (repeated update with
		// the same payload): a plain hit, no swap needed.
		r.mu.Unlock()
		return viaAcquire()
	}
	var e *entry
	if curKey, ok := r.structIdx[sKey]; ok {
		e = r.entries[curKey]
	}
	// A build still in flight is not servable: the fallback Acquire
	// coalesces onto it rather than waiting here under updateMu with no
	// value swap possible anyway.
	servable := e != nil && e.built() && e.err == nil && e.plan != nil
	if !servable {
		r.rebuilt++
		r.mu.Unlock()
		return viaAcquire()
	}

	// Pin the entry (the reference the caller will Release). It stays
	// under its old key while the values change: an Acquire or
	// AcquireKey that finds it meanwhile is ordered before this update,
	// and like every holder executes on the latest values.
	e.refs++
	r.mu.Unlock()
	if r.swapHook != nil {
		r.swapHook()
	}

	tl := events.TimelineFromContext(ctx)
	var swapStart time.Time
	if tl != nil {
		swapStart = time.Now()
	}
	err := e.plan.UpdateValuesCtx(ctx, a)
	if tl != nil {
		tl.Phase("registry.update", swapStart, time.Now())
	}

	r.mu.Lock()
	if err != nil {
		// Values and key unchanged on failure: just drop the pin.
		e.refs--
		toClose := r.closableLocked(e)
		r.mu.Unlock()
		closePlans(toClose)
		if errors.Is(err, core.ErrStructureChanged) {
			// Possible only on a structure-index collision; degrade to a
			// rebuild like any other non-updatable case.
			r.mu.Lock()
			r.rebuilt++
			r.mu.Unlock()
			return viaAcquire()
		}
		return nil, Key{}, false, err
	}

	// Re-key under the new content fingerprint, unless the entry was
	// evicted or the registry closed during the swap (the caller's
	// Release then closes the plan). A concurrent Acquire may have built
	// the identical (matrix, options) plan meanwhile; keep theirs and
	// retire ours (the caller's reference keeps it alive until Release).
	if !e.evicted {
		if _, occupied := r.entries[newKey]; occupied {
			r.unlinkLocked(e)
			r.evictions++
		} else {
			delete(r.entries, e.key)
			e.key = newKey
			r.entries[newKey] = e
			r.structIdx[sKey] = newKey
			r.lru.MoveToFront(e.elem)
		}
	}
	r.updated++
	r.mu.Unlock()
	return e.plan, newKey, true, nil
}
