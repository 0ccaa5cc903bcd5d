package core

// workspace is the per-call mutable scratch of a Plan: permutation
// buffers and the forward-backward pipeline state. The Plan itself is
// an immutable preprocessed core after construction (matrix in
// execution order, triangular split, ABMC schedule); every execution
// acquires a workspace from a sync.Pool, so any number of goroutines
// can share one Plan without sharing scratch. Workspaces are reused
// without zeroing: every kernel fully writes its buffers before
// reading them (the head SpMV overwrites tmp, the init phase
// overwrites the live iterate, and the sweeps only read slots written
// earlier in the same pass), which is the same guarantee a freshly
// allocated state relies on.
type workspace struct {
	px []float64   // permutation scratch (input side)
	py []float64   // second permutation scratch (SymGS x, complex SSpMV)
	lv [][]float64 // level-blocked engine live iterates (k+1 vectors)
	fb fbState     // forward-backward pipeline state, reshaped per call
}

// ensureLen returns s resized to length n, reusing its backing array
// when the capacity allows.
func ensureLen(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// vec returns the n-length px scratch.
func (ws *workspace) vec(n int) []float64 {
	ws.px = ensureLen(ws.px, n)
	return ws.px
}

// vec2 returns the n-length py scratch.
func (ws *workspace) vec2(n int) []float64 {
	ws.py = ensureLen(ws.py, n)
	return ws.py
}

// lvl returns the k+1 live iterate vectors of the level-blocked
// engine, each of length n. Like the other scratch, the vectors are
// reused without zeroing: the skewed schedule writes every entry of
// xs[p] before any tile reads it.
func (ws *workspace) lvl(n, k int) [][]float64 {
	if cap(ws.lv) >= k+1 {
		ws.lv = ws.lv[:k+1]
	} else {
		ws.lv = append(ws.lv[:cap(ws.lv)], make([][]float64, k+1-cap(ws.lv))...)
	}
	for p := range ws.lv {
		ws.lv[p] = ensureLen(ws.lv[p], n)
	}
	return ws.lv
}

// acquire takes a workspace from the plan's pool (allocating the first
// time); release returns it. The pool bounds steady-state allocation:
// a serving process touching one plan from G goroutines keeps at most
// max-in-flight workspaces alive.
func (p *Plan) acquire() *workspace {
	if ws, ok := p.wsPool.Get().(*workspace); ok {
		return ws
	}
	return &workspace{}
}

func (p *Plan) release(ws *workspace) {
	p.wsPool.Put(ws)
}
