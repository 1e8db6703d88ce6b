package bfs

import "fmt"

// referenceLevels computes BFS levels from root on a single core over the
// whole graph (-1 = unreachable). It is the oracle for Graph500-style
// validation.
func referenceLevels(g *CSR, root int64) []int64 {
	level := make([]int64, len(g.Off)-1)
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	queue := []int64{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Row(u) {
			if level[v] == -1 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return level
}

// hasEdge reports whether the undirected graph holds (p, v). It scans the
// child's row: children are mostly low-degree, so validating a whole tree
// costs at most one pass over the adjacency, where the rows of hub parents
// would be rescanned once per child.
func hasEdge(g *CSR, p, v int64) bool {
	for _, w := range g.Row(v) {
		if w == p {
			return true
		}
	}
	return false
}

// ValidateParents performs the Graph500 result checks on one search's
// parent array: the root is its own parent; visited vertices are exactly
// the reachable ones; every tree edge exists in the graph; and — because
// the searches are level-synchronous — every parent sits exactly one level
// above its child.
func ValidateParents(par Params, root int64, parent []int64) error {
	par.defaults()
	g := undirected(par)
	level := referenceLevels(g, root)
	if parent[root] != root {
		return fmt.Errorf("bfs: parent[root=%d] = %d", root, parent[root])
	}
	for v, p := range parent {
		v := int64(v)
		if p == -1 {
			if level[v] != -1 {
				return fmt.Errorf("bfs: vertex %d reachable (level %d) but not visited", v, level[v])
			}
			continue
		}
		if level[v] == -1 {
			return fmt.Errorf("bfs: vertex %d visited but unreachable", v)
		}
		if v == root {
			continue
		}
		if !hasEdge(g, p, v) {
			return fmt.Errorf("bfs: tree edge (%d,%d) not in graph", p, v)
		}
		if level[v] != level[p]+1 {
			return fmt.Errorf("bfs: vertex %d at level %d has parent %d at level %d",
				v, level[v], p, level[p])
		}
	}
	return nil
}
