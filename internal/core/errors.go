package core

import "errors"

// Typed errors returned by the public entry points (Plan methods and
// the package-level MPK/SSpMV functions). Callers match them with
// errors.Is; the wrapping message carries the offending sizes. The
// public API contract is: argument misuse returns one of these errors,
// it never panics — panics below this boundary are internal
// programming errors, not input conditions.
var (
	// ErrDimension reports a vector whose length does not match the
	// plan's matrix dimension, or mismatched vector pairs.
	ErrDimension = errors.New("dimension mismatch")
	// ErrBadPower reports a requested power k < 1.
	ErrBadPower = errors.New("power must be >= 1")
	// ErrBadCoeffs reports an empty coefficient slice, or one whose
	// length does not match the requested power.
	ErrBadCoeffs = errors.New("invalid coefficient slice")
	// ErrEmptyBlock reports a batched (multi-RHS) call with no vectors.
	ErrEmptyBlock = errors.New("empty vector block")
	// ErrInvalidMatrix reports a nil matrix or one that fails CSR
	// structural validation.
	ErrInvalidMatrix = errors.New("invalid matrix")
	// ErrBadSweeps reports a SymGS sweep count < 1.
	ErrBadSweeps = errors.New("sweep count must be >= 1")
	// ErrNoSplit reports a SymGS call on a plan built without the
	// L+D+U split (the standard engine does not construct it).
	ErrNoSplit = errors.New("no L+D+U split available")
	// ErrClosed reports a call on a plan whose Close has begun: the
	// plan drains in-flight executions and fails late arrivals.
	ErrClosed = errors.New("plan is closed")
	// ErrBadEngine reports an Engine in the options that is none of
	// the four Engine constants.
	ErrBadEngine = errors.New("unknown engine")
	// ErrStructureChanged reports an UpdateValues call whose matrix has
	// a different sparsity pattern than the one the plan was built for;
	// the caller must rebuild (Registry.UpdateValues does so
	// automatically).
	ErrStructureChanged = errors.New("matrix structure changed")
)

// errCanceledRun is the internal signal that an execution observed its
// cancellation flag and abandoned the run; the plan layer translates
// it into the context's error so callers can match context.Canceled /
// context.DeadlineExceeded with errors.Is.
var errCanceledRun = errors.New("core: run canceled")
