package core

import (
	"fmt"

	"fbmpk/internal/graph"
	"fbmpk/internal/sparse"
)

// BFS level partition of the matrix graph: the structure behind the
// level-blocked engine (levelblock.go) and the level-blocked schedule
// the cache simulator replays (cachesim.TraceLevelBlockedMPK) — the
// LB-MPK family of Alappat et al. the paper discusses in Section VI.

// LevelPartition groups the rows of a square matrix by BFS level of
// its symmetrized pattern graph (component by component). Every
// neighbor of a level-l row lies in levels l-1..l+1, the property the
// level schedules rely on.
type LevelPartition struct {
	Level    []int32 // level of each row
	LevelPtr []int32 // rows of level l are Rows[LevelPtr[l]:LevelPtr[l+1]]
	Rows     []int32
}

// NumLevels returns the number of BFS levels.
func (lp *LevelPartition) NumLevels() int { return len(lp.LevelPtr) - 1 }

// BFSLevels computes the level partition. Connected components are
// stacked: each new component's BFS starts one level past the previous
// component's deepest level, so levels never mix rows from different
// components and a diagonal matrix yields n singleton levels. Stacking
// preserves the |Δlevel| <= 1 property (there are no edges between
// components) while giving the level-blocked engine fine-grained
// boundaries to cut cache blocks at.
//
// The traversal runs over graph.FromCSRPattern's adjacency — each row
// merged once with its row of the pattern-only transpose, no value
// copied. A level is a BFS distance whatever order neighbors are visited
// in and Rows is a counting sort by level, so the partition does not
// depend on how the adjacency was assembled. Rows therefore lists a
// level's rows in source order, which is what lets levelSchedule.permute
// place a permuted row without sorting it.
func BFSLevels(a *sparse.CSR) (*LevelPartition, error) {
	return bfsLevels(a, nil)
}

// bfsLevels is BFSLevels with the adjacency built on r's workers (nil =
// serial); the traversal itself is serial.
func bfsLevels(a *sparse.CSR, r sparse.Runner) (*LevelPartition, error) {
	g, err := graph.FromCSRPattern(a, r)
	if err != nil {
		return nil, fmt.Errorf("core: BFSLevels: %w", err)
	}
	n := g.N
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	maxLevel := int32(-1)
	queue := make([]int32, 0, n)
	for start := 0; start < n; start++ {
		if level[start] >= 0 {
			continue
		}
		level[start] = maxLevel + 1
		queue = append(queue[:0], int32(start))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if level[v] > maxLevel {
				maxLevel = level[v]
			}
			for _, u := range g.Neighbors(int(v)) {
				if level[u] < 0 {
					level[u] = level[v] + 1
					queue = append(queue, u)
				}
			}
		}
	}
	nl := int(maxLevel) + 1
	lp := &LevelPartition{Level: level, LevelPtr: make([]int32, nl+1), Rows: make([]int32, n)}
	for _, l := range level {
		lp.LevelPtr[l+1]++
	}
	for l := 0; l < nl; l++ {
		lp.LevelPtr[l+1] += lp.LevelPtr[l]
	}
	next := make([]int32, nl)
	copy(next, lp.LevelPtr[:nl])
	for i, l := range level {
		lp.Rows[next[l]] = int32(i)
		next[l]++
	}
	return lp, nil
}
