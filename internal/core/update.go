package core

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"fbmpk/internal/sparse"
)

// Value updates (ROADMAP item 5). Serving workloads on evolving
// matrices — PageRank on a changing graph, time-stepping FEM with
// changing coefficients — re-solve on matrices whose values change
// while the sparsity pattern does not. UpdateValues exploits exactly
// that split: with the structure verified identical, the permutation,
// the ABMC schedule and the CSR and L+D+U index arrays all remain
// valid, and only the value payload of the one container the plan's
// engine runs on is rebuilt (an O(nnz) gather, no re-preprocessing).
//
// Concurrency model: epoch/RCU. Each execution pins the plan's value
// epoch once at admission (Plan.exec) and runs to completion on it, so
// a call admitted before an update returns results bitwise-identical
// to a plan that never updated, while calls admitted after the swap
// see the new values — with no locking on the read path beyond one
// atomic load. Old epochs are garbage-collected once their last
// in-flight execution finishes.

// Epoch returns the plan's current value-epoch sequence number: 0
// after NewPlan, incremented by every successful UpdateValues. Useful
// for correlating results with the value generation that produced
// them.
func (p *Plan) Epoch() uint64 { return p.state.Load().seq }

// UpdateValues replaces the plan's matrix values with those of a,
// which must have exactly the structure (dimensions, RowPtr, ColIdx)
// of the matrix the plan was built from; a structure delta fails with
// ErrStructureChanged and leaves the plan untouched (use
// Registry.UpdateValues for an automatic rebuild fallback). On success
// the plan's next admitted execution computes on the new values;
// executions already in flight finish on the values they started with.
func (p *Plan) UpdateValues(a *sparse.CSR) error {
	return p.UpdateValuesCtx(context.Background(), a)
}

// UpdateValuesCtx is UpdateValues honoring ctx up to the swap: a call
// canceled before it takes the update lock, or while it waits for it,
// fails with the context's error and changes nothing. The swap itself
// is a bounded O(nnz) pass and is not interrupted once started.
func (p *Plan) UpdateValuesCtx(ctx context.Context, a *sparse.CSR) error {
	if a == nil {
		return fmt.Errorf("core: UpdateValues: nil matrix: %w", ErrInvalidMatrix)
	}
	// No full Validate pass here: sameStructure proves RowPtr and ColIdx
	// equal to the plan's retained, already-validated structure, which
	// proves every structural invariant Validate would. Only the
	// value-array length needs its own check.
	if len(a.Val) != len(a.ColIdx) {
		return fmt.Errorf("core: UpdateValues: len(Val)=%d, want nnz=%d: %w",
			len(a.Val), len(a.ColIdx), ErrInvalidMatrix)
	}
	p.updateMu.Lock()
	defer p.updateMu.Unlock()
	if ctx != nil {
		// Checked after the lock, which cannot observe ctx: a call
		// canceled before it or while it waited returns here.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: UpdateValues canceled: %w", err)
		}
	}
	if p.Closed() {
		return fmt.Errorf("core: UpdateValues: %w", ErrClosed)
	}
	start := time.Now()
	if err := p.sameStructure(a); err != nil {
		return err
	}
	if p.perm != nil && p.valMap == nil {
		// Lazily built (and then reused for every later update):
		// exec-order slot -> original value index, replaying the
		// ApplySym gather order so the result is bitwise identical
		// to a fresh NewPlan on a.
		m, err := p.perm.ValueMap(a)
		if err != nil {
			return fmt.Errorf("core: UpdateValues: %w", err)
		}
		p.valMap = m
	}
	// The engine rebuilds its container straight from a's values —
	// through the slot map for reordered plans — on transient goroutines:
	// the plan's pool may be mid-execution on the old epoch (that
	// concurrency is the point), so the swap shares the CPUs with it
	// rather than queue behind it (BenchmarkMPKBesideUpdates prices that).
	cur := p.state.Load()
	next := p.engine.revalue(cur, a.Val, p.valMap)
	next.seq = cur.seq + 1
	p.state.Store(next)
	p.updates.Add(1)
	p.updateNanos.Add(time.Since(start).Nanoseconds())
	return nil
}

// sameStructure verifies that a has exactly the sparsity pattern of
// the matrix the plan was built from, against the retained original
// structure arrays.
func (p *Plan) sameStructure(a *sparse.CSR) error {
	if a.Rows != p.n || a.Cols != p.n {
		return fmt.Errorf("core: UpdateValues: %dx%d matrix for an n=%d plan: %w",
			a.Rows, a.Cols, p.n, ErrStructureChanged)
	}
	if len(a.RowPtr) != len(p.srcRowPtr) || len(a.ColIdx) != len(p.srcColIdx) {
		return fmt.Errorf("core: UpdateValues: nnz %d != plan nnz %d: %w",
			len(a.ColIdx), len(p.srcColIdx), ErrStructureChanged)
	}
	if i := firstDelta(a.RowPtr, p.srcRowPtr); i >= 0 {
		return fmt.Errorf("core: UpdateValues: row pointer delta at row %d: %w",
			i, ErrStructureChanged)
	}
	if i := firstDelta(a.ColIdx, p.srcColIdx); i >= 0 {
		return fmt.Errorf("core: UpdateValues: column index delta at slot %d: %w",
			i, ErrStructureChanged)
	}
	return nil
}

// firstDelta returns the first index at which x and y (of equal length)
// differ, or -1. The arrays are compared as bytes — the runtime's
// vectorized memequal, which returns at once when x and y are the same
// memory — and only a mismatch is rescanned entry by entry.
func firstDelta[T int64 | int32](x, y []T) int {
	if !bytes.Equal(sparse.RawBytes(x), sparse.RawBytes(y)) {
		for i := range x {
			if x[i] != y[i] {
				return i
			}
		}
	}
	return -1
}
