package fbmpk

import (
	"fbmpk/internal/core"
	"fbmpk/internal/registry"
)

// Registry is a ref-counted, LRU-evicting cache of prepared Plans
// keyed by a content fingerprint of the matrix (CSR structure and
// values) and the canonicalized plan options. It turns the one-off
// preprocessing cost of NewPlan — the ABMC reorder, the L+D+U split —
// into a cost paid once per distinct (matrix, options) pair rather
// than once per caller:
//
//	reg := fbmpk.NewRegistry(8)
//	defer reg.Close()
//
//	plan, err := reg.Acquire(a, fbmpk.WithThreads(4))
//	if err != nil { ... }
//	defer reg.Release(plan)
//	y, err := plan.SSpMV(coeffs, x)
//
// Acquire on a cached key returns the existing plan immediately,
// skipping preprocessing entirely; concurrent Acquires of the same
// key coalesce onto a single build (singleflight). AcquireCtx is the
// deadline-aware variant serving front ends should use: a caller
// coalesced onto another caller's slow build abandons the wait when
// its context fires (the build itself completes and stays cached for
// the remaining waiters). Release hands the reference back — do not
// call Plan.Close on an acquired plan.
// Eviction (capacity pressure or registry Close) defers the actual
// plan teardown until the last reference drains, so a cached plan can
// never be closed out from under a caller still using it.
//
// UpdateValues is the mutable-matrix entry point: given a matrix whose
// values changed but whose structure matches a cached plan (built with
// the same options), it swaps the plan's value epoch in place and
// re-keys the entry to the new content fingerprint — no preprocessing,
// no re-tuning — falling back to an ordinary Acquire build otherwise.
// A reference is to the plan, not to a value generation: one held
// across an in-place update executes on the latest values afterwards
// (only executions already admitted finish on the values they were
// admitted under). See the package documentation's "Mutable matrices"
// section.
//
// AcquireKey is the handle form of Acquire: a caller that kept the
// PlanKey of a matrix it has not mutated since (PlanFingerprint's
// result, or the key UpdateValuesKeyed returned) gets the cached plan
// back without the matrix being validated or hashed again; any key
// with no built plan behind it is ErrNotCached, and the caller falls
// back to Acquire.
//
// All methods are safe for concurrent use.
type Registry = registry.Registry

// RegistryStats is a point-in-time snapshot of a Registry's counters:
// cache traffic (Hits, Misses, Coalesced, Canceled), build outcomes (Builds,
// BuildFailures, cumulative BuildTime), Evictions, value-update
// outcomes (Updated in-place swaps vs Rebuilt fallbacks), and
// occupancy (Entries, Live, Capacity). Its HitRate method reports the
// fraction of Acquires that did not trigger a build.
type RegistryStats = registry.Stats

// PlanKey is the content fingerprint a Registry keys plans by: a
// SHA-256 digest over the matrix dimensions, CSR arrays (exact value
// bits), and canonicalized options. Compute one directly with
// PlanFingerprint to correlate logs or metrics with cache entries.
type PlanKey = registry.Key

// NewRegistry returns a plan cache holding at most capacity plans;
// least-recently-used entries are evicted beyond that. capacity <= 0
// means unbounded. See Registry for usage.
func NewRegistry(capacity int) *Registry {
	return registry.New(capacity)
}

// PlanFingerprint returns the cache key a Registry would use for
// building a plan on matrix a with the given options. Option sets
// that would build interchangeable plans (struct literal vs
// functional options, defaulted vs explicit fields) map to the same
// key; perturbing any matrix value, index, or dimension, or any
// meaningful option field, yields a distinct key.
func PlanFingerprint(a *Matrix, opts ...Option) PlanKey {
	return registry.Fingerprint(a, core.BuildOptions(opts...))
}

// Registry-specific error sentinels; match with errors.Is.
var (
	// ErrRegistryClosed reports an Acquire on a registry after Close.
	ErrRegistryClosed = registry.ErrRegistryClosed
	// ErrNotAcquired reports a Release of a plan the registry holds no
	// live reference for.
	ErrNotAcquired = registry.ErrNotAcquired
	// ErrNotCached reports an AcquireKey for a key with no built plan
	// cached under it; fall back to Acquire with the matrix.
	ErrNotCached = registry.ErrNotCached
)
