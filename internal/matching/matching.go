// Package matching provides polynomial-time exact optimizers on bipartite
// graphs: Hopcroft–Karp maximum matching, the König construction of a
// minimum vertex cover from a maximum matching, and (via complementation) a
// maximum independent set. These are the ground-truth oracles for the
// approximation-ratio experiments: on bipartite inputs the distributed
// algorithms can be scored against an exact optimum at n = 10^4+ instead of
// the tiny instances an exponential solver would allow.
package matching

import (
	"repro/internal/graph"
)

// Result holds a maximum matching of a bipartite graph together with the
// König vertex cover and the complementary maximum independent set.
type Result struct {
	// Mate[v] is the matched partner of v, or -1.
	Mate []int32
	// Size is the number of matched edges.
	Size int
	// MinVertexCover is a minimum vertex cover (König).
	MinVertexCover []int32
	// MaxIndependentSet is V minus the cover — a maximum independent set.
	MaxIndependentSet []int32
}

// Bipartite runs Hopcroft–Karp on g with the given 2-coloring (side[v] in
// {0,1}); vertices with side[v] < 0 are ignored entirely (treated as
// absent). It returns nil if side is not a proper 2-coloring of the present
// subgraph.
func Bipartite(g *graph.Graph, side []int8) *Result {
	n := g.N()
	// Validate the coloring on present vertices.
	for u := 0; u < n; u++ {
		if side[u] < 0 {
			continue
		}
		for _, w := range g.Neighbors(u) {
			if side[w] >= 0 && side[w] == side[u] {
				return nil
			}
		}
	}
	const inf = int32(1) << 30
	mate := make([]int32, n)
	for i := range mate {
		mate[i] = -1
	}
	dist := make([]int32, n)
	// Hopcroft–Karp: repeat { BFS layering from free left vertices; DFS
	// augment along shortest paths } until no augmenting path exists.
	var queue []int32
	var bfs func() bool
	bfs = func() bool {
		queue = queue[:0]
		for u := 0; u < n; u++ {
			if side[u] != 0 {
				continue
			}
			if mate[u] == -1 {
				dist[u] = 0
				queue = append(queue, int32(u))
			} else {
				dist[u] = inf
			}
		}
		found := false
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for _, w := range g.Neighbors(int(u)) {
				if side[w] != 1 {
					continue
				}
				next := mate[w]
				if next == -1 {
					found = true
				} else if dist[next] == inf {
					dist[next] = dist[u] + 1
					queue = append(queue, next)
				}
			}
		}
		return found
	}
	var dfs func(u int32) bool
	dfs = func(u int32) bool {
		for _, w := range g.Neighbors(int(u)) {
			if side[w] != 1 {
				continue
			}
			next := mate[w]
			if next == -1 || (dist[next] == dist[u]+1 && dfs(next)) {
				mate[u] = w
				mate[w] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}
	size := 0
	for bfs() {
		for u := 0; u < n; u++ {
			if side[u] == 0 && mate[u] == -1 && dfs(int32(u)) {
				size++
			}
		}
	}

	// König: Z = free left vertices plus everything reachable by alternating
	// paths (unmatched edge left->right, matched edge right->left).
	// Min cover = (Left \ Z) ∪ (Right ∩ Z).
	inZ := make([]bool, n)
	queue = queue[:0]
	for u := 0; u < n; u++ {
		if side[u] == 0 && mate[u] == -1 {
			inZ[u] = true
			queue = append(queue, int32(u))
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(int(u)) {
			if side[w] != 1 || inZ[w] || mate[u] == w {
				continue
			}
			inZ[w] = true
			if m := mate[w]; m != -1 && !inZ[m] {
				inZ[m] = true
				queue = append(queue, m)
			}
		}
	}
	var cover, indep []int32
	for v := 0; v < n; v++ {
		if side[v] < 0 {
			continue
		}
		inCover := (side[v] == 0 && !inZ[v]) || (side[v] == 1 && inZ[v])
		if inCover {
			cover = append(cover, int32(v))
		} else {
			indep = append(indep, int32(v))
		}
	}
	return &Result{Mate: mate, Size: size, MinVertexCover: cover, MaxIndependentSet: indep}
}

// BipartiteAuto 2-colors g and runs Bipartite; returns nil when g is not
// bipartite.
func BipartiteAuto(g *graph.Graph) *Result {
	ok, side := g.IsBipartite()
	if !ok {
		return nil
	}
	return Bipartite(g, side)
}

// VerifyMatching reports whether mate encodes a valid matching of g.
func VerifyMatching(g *graph.Graph, mate []int32) bool {
	for v := 0; v < g.N(); v++ {
		m := mate[v]
		if m == -1 {
			continue
		}
		if int(m) == v || m < 0 || int(m) >= g.N() {
			return false
		}
		if mate[m] != int32(v) {
			return false
		}
		if !g.HasEdge(v, int(m)) {
			return false
		}
	}
	return true
}

// VerifyVertexCover reports whether the set covers every edge of g.
func VerifyVertexCover(g *graph.Graph, cover []int32) bool {
	in := make([]bool, g.N())
	for _, v := range cover {
		in[v] = true
	}
	ok := true
	g.Edges(func(u, v int) {
		if !in[u] && !in[v] {
			ok = false
		}
	})
	return ok
}

// VerifyIndependentSet reports whether the set is independent in g.
func VerifyIndependentSet(g *graph.Graph, set []int32) bool {
	in := make([]bool, g.N())
	for _, v := range set {
		in[v] = true
	}
	ok := true
	g.Edges(func(u, v int) {
		if in[u] && in[v] {
			ok = false
		}
	})
	return ok
}
