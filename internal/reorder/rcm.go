package reorder

import (
	"sort"

	"fbmpk/internal/graph"
	"fbmpk/internal/sparse"
)

// RCM computes the reverse Cuthill-McKee ordering of a square matrix's
// symmetrized pattern. It is the classical bandwidth/locality
// reordering the paper cites as the standard alternative (Section
// II-C) and serves as an ablation baseline against ABMC. The returned
// permutation follows the package convention perm[new] = old.
//
// Each connected component is traversed breadth-first from a
// pseudo-peripheral vertex, visiting neighbors in ascending-degree
// order; the concatenated order is then reversed.
func RCM(a *sparse.CSR) (Perm, error) {
	g, err := graph.FromCSRPattern(a, nil)
	if err != nil {
		return nil, err
	}
	n := g.N
	order := make([]int32, 0, n)
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	nbrBuf := make([]int32, 0, 64)

	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := pseudoPeripheral(g, int32(start))
		queue = queue[:0]
		queue = append(queue, root)
		visited[root] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			nbrBuf = nbrBuf[:0]
			for _, u := range g.Neighbors(int(v)) {
				if !visited[u] {
					visited[u] = true
					nbrBuf = append(nbrBuf, u)
				}
			}
			sort.Slice(nbrBuf, func(x, y int) bool {
				dx, dy := g.Degree(int(nbrBuf[x])), g.Degree(int(nbrBuf[y]))
				if dx != dy {
					return dx < dy
				}
				return nbrBuf[x] < nbrBuf[y]
			})
			queue = append(queue, nbrBuf...)
		}
	}
	// Reverse for RCM.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return Perm(order), nil
}

// pseudoPeripheral finds an approximate peripheral vertex of the
// component containing start using the usual double-BFS heuristic
// (George & Liu): BFS to the farthest level, pick its minimum-degree
// vertex, repeat while eccentricity grows.
func pseudoPeripheral(g *graph.Adj, start int32) int32 {
	level := make(map[int32]int, 64)
	bfs := func(root int32) (last []int32, depth int) {
		for k := range level {
			delete(level, k)
		}
		frontier := []int32{root}
		level[root] = 0
		depth = 0
		for len(frontier) > 0 {
			var next []int32
			for _, v := range frontier {
				for _, u := range g.Neighbors(int(v)) {
					if _, ok := level[u]; !ok {
						level[u] = level[v] + 1
						next = append(next, u)
					}
				}
			}
			if len(next) == 0 {
				return frontier, depth
			}
			frontier = next
			depth++
		}
		return []int32{root}, 0
	}

	root := start
	last, depth := bfs(root)
	for iter := 0; iter < 8; iter++ {
		best := last[0]
		for _, v := range last {
			if g.Degree(int(v)) < g.Degree(int(best)) {
				best = v
			}
		}
		nlast, ndepth := bfs(best)
		if ndepth <= depth {
			return best
		}
		root, last, depth = best, nlast, ndepth
		_ = root
	}
	return last[0]
}
