package sparse

// Runner abstracts the data-parallel for-range primitive of the worker
// pool (parallel.Pool satisfies it) so the preprocessing kernels in
// this package and its dependents can run row-parallel without
// importing the threading substrate. A nil Runner selects the serial
// path; use ForRanges to dispatch either way.
//
// Implementations must run body over disjoint contiguous ranges that
// exactly cover [lo, hi) and return only after every range completes.
// The preprocessing kernels built on top write disjoint output ranges
// per call, so any such implementation preserves bitwise-deterministic
// results.
type Runner interface {
	// ForRanges splits [lo, hi) into one contiguous range per worker
	// and calls body(id, start, end) for each non-empty range.
	ForRanges(lo, hi int, body func(id, start, end int))
	// Workers returns the number of workers (the maximum id+1 body can
	// observe), used to size per-worker scratch.
	Workers() int
}

// ForRanges runs body over [lo, hi) on r, or serially as one range
// (id 0) when r is nil. Callers holding a concrete pool pointer must
// take care to pass a nil interface, not a typed nil pointer.
func ForRanges(r Runner, lo, hi int, body func(id, start, end int)) {
	if hi <= lo {
		return
	}
	if r == nil {
		body(0, lo, hi)
		return
	}
	r.ForRanges(lo, hi, body)
}
