// Package graph provides the undirected-graph substrate used by every
// algorithm in this repository: a compact immutable adjacency structure,
// breadth-first searches (single-source, multi-source, and radius-bounded),
// ball queries N^k(v), connected components, induced subgraphs with vertex
// remapping, graph powers, edge subdivision, and structural predicates
// (bipartiteness, girth, diameter).
//
// Vertices are dense integers 0..N-1. Graphs are simple (no self-loops, no
// multi-edges) and immutable after construction; algorithms that "delete"
// vertices operate on an alive-mask or build induced subgraphs, which keeps
// the base structure shareable across goroutines without locks.
//
// Every search runs on one kernel family over View (ParBFSBounded, ParBFS,
// ParBall, ParBallLayers, ParBallFromSet, ParBallLayersFromSet,
// ParComponents), backed by one reusable ParWorkspace and one shared pool
// of them. A kernel allocates nothing once its workspace is warm, and its
// results alias the workspace. Its worker bound expands large BFS levels
// across goroutines with merges that are bit-identical at every worker
// count; frontiers too small to be worth fanning out expand serially, and
// callers that already fan independent searches out pass workers = 1 (on a
// *Graph that runs a plain loop with no per-vertex interface call). See
// parbfs.go for the claim/emit discipline and ParWorkspace for the
// ownership and aliasing rules.
//
// The classic methods on *Graph (BFS, BFSBounded, Ball, BallAlive,
// BallLayers, Components, Induced, Power, Diameter, WeakDiameter, ...)
// return caller-owned results: they are thin wrappers that run the kernel
// at workers = 1 on a pooled workspace and copy the result out.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable simple undirected graph in compressed adjacency
// form. Construct one with NewBuilder / Build. The zero value is an empty
// graph with no vertices.
type Graph struct {
	offsets []int32 // len n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []int32 // concatenated sorted neighbor lists
	m       int     // number of edges
}

// N returns the number of vertices.
func (g *Graph) N() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge. O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}

// Edges calls fn for every edge {u, v} with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// EdgeList returns all edges as [2]int pairs with u < v.
func (g *Graph) EdgeList() [][2]int {
	out := make([][2]int, 0, g.m)
	g.Edges(func(u, v int) { out = append(out, [2]int{u, v}) })
	return out
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N(), g.M())
}

// Builder accumulates edges and produces an immutable Graph. Duplicate edges
// (in either orientation) and self-loops are silently dropped, so builders
// can be fed redundant edge streams (e.g. from generators or the cliques of
// a hypergraph's primal graph) without pre-deduplication.
//
// Build needs no global edge sort: it counts degrees, scatters both
// endpoints of every edge into their adjacency lists, then sorts and
// deduplicates each list in place. The result is the canonical CSR (sorted
// lists, no spare capacity) whatever order the edges arrived in, in
// O(m + Σ_v deg(v)·log deg(v)) time.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Out-of-range endpoints and
// self-loops are ignored.
func (b *Builder) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= b.n || v >= b.n {
		return
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// Build finalizes the graph. The builder can be reused afterwards: a later
// Build includes every edge added so far, and AddEdge calls never affect
// already-built graphs.
func (b *Builder) Build() *Graph {
	n := b.n
	// offsets[v+1] counts v's entries, duplicates included; the prefix sum
	// turns the counts into list starts.
	offsets := make([]int32, n+1)
	for _, e := range b.edges {
		offsets[e[0]+1]++
		offsets[e[1]+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := make([]int32, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, e := range b.edges {
		adj[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		adj[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	// Sort each list and compact it left over the duplicates dropped so
	// far; the write position never passes the read position.
	w, start := int32(0), int32(0)
	for v := 0; v < n; v++ {
		end := offsets[v+1]
		nb := adj[start:end]
		slices.Sort(nb)
		offsets[v] = w
		prev := int32(-1)
		for _, x := range nb {
			if x != prev {
				adj[w] = x
				w++
				prev = x
			}
		}
		start = end
	}
	offsets[n] = w
	if int(w) < len(adj) {
		adj = append(make([]int32, 0, w), adj[:w]...)
	}
	return &Graph{offsets: offsets, adj: adj, m: int(w) / 2}
}

// CSR exposes the raw compressed-sparse-row arrays: offsets has length N()+1
// and adj holds the concatenated sorted neighbor lists. Both slices alias
// internal storage and must not be modified. This is the stable wire form
// used by internal/graphio for streaming serialization and fingerprinting.
func (g *Graph) CSR() (offsets, adj []int32) {
	return g.offsets, g.adj
}

// FromCSR constructs a Graph directly from compressed-sparse-row arrays,
// validating the representation invariants the rest of the package relies
// on: len(offsets) >= 1, offsets monotone with offsets[0] == 0 and
// offsets[n] == len(adj), every neighbor in range, each list strictly
// sorted (no duplicate edges), no self-loops, and adjacency symmetry. The
// arrays are retained (not copied); callers must not modify them afterwards.
func FromCSR(offsets, adj []int32) (*Graph, error) {
	if len(offsets) == 0 || offsets[0] != 0 {
		return nil, fmt.Errorf("graph: CSR offsets must start with 0 (len %d)", len(offsets))
	}
	n := len(offsets) - 1
	if int(offsets[n]) != len(adj) {
		return nil, fmt.Errorf("graph: CSR offsets[n]=%d != len(adj)=%d", offsets[n], len(adj))
	}
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, fmt.Errorf("graph: CSR offsets not monotone at vertex %d", v)
		}
		nb := adj[offsets[v]:offsets[v+1]]
		for i, w := range nb {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: neighbor %d of vertex %d out of range [0,%d)", w, v, n)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: self-loop on vertex %d", v)
			}
			if i > 0 && nb[i-1] >= w {
				return nil, fmt.Errorf("graph: adjacency of vertex %d not strictly sorted at position %d", v, i)
			}
		}
	}
	g := &Graph{offsets: offsets, adj: adj, m: len(adj) / 2}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: odd adjacency length %d cannot be symmetric", len(adj))
	}
	// The lists are strictly sorted, so visiting every u in increasing
	// order consumes each list w in order exactly when the adjacency is
	// symmetric: w's next unconsumed entry must be u. This takes O(m).
	cursor := slices.Clone(offsets[:n])
	for u := 0; u < n; u++ {
		for _, w := range g.Neighbors(u) {
			if cursor[w] == offsets[w+1] || adj[cursor[w]] != int32(u) {
				return nil, firstAsymmetric(g)
			}
			cursor[w]++
		}
	}
	return g, nil
}

// firstAsymmetric names the first entry v->w, in CSR order, whose reverse
// w->v is missing.
func firstAsymmetric(g *Graph) error {
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("graph: asymmetric edge %d->%d", v, w)
			}
		}
	}
	return nil
}

// FromEdges builds a graph on n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// View is the minimal read-only adjacency surface a traversal needs: the
// vertex count and per-vertex sorted neighbor lists. Graph implements it
// directly; store snapshots implement it over a base CSR plus a mutation
// overlay, so point queries can run against a mutated graph without
// materializing a new CSR. Neighbor slices returned through a View alias
// internal storage and must not be modified.
type View interface {
	N() int
	Degree(v int) int
	Neighbors(v int) []int32
}

var _ View = (*Graph)(nil)

// Unreachable is the distance value reported for vertices not reached by a
// bounded or disconnected BFS.
const Unreachable = int32(-1)

// BFS computes single-source distances from src. dist[v] == Unreachable for
// vertices in other components.
func (g *Graph) BFS(src int) []int32 {
	return g.BFSBounded(src, -1)
}

// BFSBounded computes distances from src up to the given radius (inclusive).
// A negative radius means unbounded. The caller owns the returned slice; for
// an allocation-free variant see ParBFSBounded.
func (g *Graph) BFSBounded(src, radius int) []int32 {
	pw := AcquireParWorkspace()
	dist := slices.Clone(ParBFSBounded(pw, g, src, radius, 1))
	ReleaseParWorkspace(pw)
	return dist
}

// Ball returns the vertices of N^k(v) = {u : dist(u,v) <= k}, in BFS order
// (hence sorted by distance), including v itself.
func (g *Graph) Ball(v, k int) []int32 {
	return g.BallAlive(v, k, nil)
}

// BallAlive returns N^k(v) restricted to the subgraph induced by vertices u
// with alive[u] == true. A nil alive mask means all vertices are alive. If v
// itself is dead the ball is empty. The caller owns the returned slice; for
// an allocation-free variant see ParBall.
func (g *Graph) BallAlive(v, k int, alive []bool) []int32 {
	pw := AcquireParWorkspace()
	ball := slices.Clone(ParBall(pw, g, v, k, alive, 1))
	ReleaseParWorkspace(pw)
	return ball
}

// BallLayers returns the layers S_0, S_1, ..., S_k of the BFS from v in the
// alive-induced subgraph: S_j is the set of alive vertices at distance
// exactly j from v. Trailing empty layers are trimmed.
func (g *Graph) BallLayers(v, k int, alive []bool) [][]int32 {
	pw := AcquireParWorkspace()
	res := ParBallLayers(pw, g, v, k, alive, 1)
	var layers [][]int32
	if res != nil {
		layers = make([][]int32, len(res))
		for i, l := range res {
			layers[i] = slices.Clone(l)
		}
	}
	ReleaseParWorkspace(pw)
	return layers
}

// Components returns the connected-component id of each vertex (ids are
// dense, 0-based, in order of first discovery) and the number of components.
func (g *Graph) Components() (comp []int32, count int) {
	return g.ComponentsAlive(nil)
}

// ComponentsAlive is Components restricted to the alive-induced subgraph.
// Dead vertices get component id -1.
func (g *Graph) ComponentsAlive(alive []bool) (comp []int32, count int) {
	pw := AcquireParWorkspace()
	c, count := ParComponents(pw, g, alive, 1)
	comp = slices.Clone(c)
	ReleaseParWorkspace(pw)
	return comp, count
}

// Induced builds the subgraph induced by the given vertex set. It returns
// the new graph and the mapping newID -> oldID (the inverse mapping can be
// derived by the caller). Duplicate vertices in the input are collapsed.
func (g *Graph) Induced(vertices []int32) (*Graph, []int32) {
	pw := AcquireParWorkspace()
	sub, back := g.InducedWithWorkspace(pw, vertices)
	out := &Graph{
		offsets: append([]int32(nil), sub.offsets...),
		adj:     append([]int32(nil), sub.adj...),
		m:       sub.m,
	}
	newToOld := append([]int32(nil), back...)
	ReleaseParWorkspace(pw)
	return out, newToOld
}

// Power returns the k-th power graph G^k: same vertex set, an edge between
// any two distinct vertices at distance <= k in G. Quadratic in ball sizes;
// intended for the moderate k used by the GKM baseline.
func (g *Graph) Power(k int) *Graph {
	if k <= 1 {
		// G^1 == G; return a copy-free alias (Graph is immutable).
		return g
	}
	pw := AcquireParWorkspace()
	p := g.PowerWithWorkspace(pw, k)
	ReleaseParWorkspace(pw)
	return p
}

// Subdivide returns the graph obtained by replacing every edge {u, v} with a
// path u - w_1 - ... - w_{extra} - v of extra new internal vertices (so the
// path has length extra+1). extra = 0 returns an isomorphic copy. This is
// the reduction used in Theorems B.3 and B.7 with extra = 2x.
func (g *Graph) Subdivide(extra int) *Graph {
	if extra < 0 {
		extra = 0
	}
	n := g.N()
	b := NewBuilder(n + extra*g.M())
	next := n
	g.Edges(func(u, v int) {
		if extra == 0 {
			b.AddEdge(u, v)
			return
		}
		prev := u
		for i := 0; i < extra; i++ {
			b.AddEdge(prev, next)
			prev = next
			next++
		}
		b.AddEdge(prev, v)
	})
	return b.Build()
}

// IsBipartite reports whether the graph is bipartite, and if so returns a
// valid 2-coloring (side[v] in {0, 1}); otherwise side is nil.
func (g *Graph) IsBipartite() (bool, []int8) {
	side := make([]int8, g.N())
	for i := range side {
		side[i] = -1
	}
	var queue []int32
	for s := 0; s < g.N(); s++ {
		if side[s] != -1 {
			continue
		}
		side[s] = 0
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(int(v)) {
				if side[w] == -1 {
					side[w] = 1 - side[v]
					queue = append(queue, w)
				} else if side[w] == side[v] {
					return false, nil
				}
			}
		}
	}
	return true, side
}

// Girth returns the length of a shortest cycle, or -1 for a forest.
// O(n·m) BFS-based bound; fine at laptop scale.
func (g *Graph) Girth() int {
	best := -1
	dist := make([]int32, g.N())
	parent := make([]int32, g.N())
	for s := 0; s < g.N(); s++ {
		for i := range dist {
			dist[i] = Unreachable
			parent[i] = -1
		}
		dist[s] = 0
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if best >= 0 && int(dist[v])*2 >= best {
				// No shorter cycle through s can be found beyond this depth.
				continue
			}
			for _, w := range g.Neighbors(int(v)) {
				if w == parent[v] {
					// Skip the tree edge back to the parent once; parallel
					// edges are impossible in a simple graph.
					parent[v] = -2 // consume the single back-edge allowance
					continue
				}
				if dist[w] == Unreachable {
					dist[w] = dist[v] + 1
					parent[w] = v
					queue = append(queue, w)
				} else {
					// Non-tree edge closes a cycle of length d(v)+d(w)+1.
					c := int(dist[v] + dist[w] + 1)
					if best < 0 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}

// Diameter returns the maximum eccentricity over all vertices, treating each
// connected component separately and returning the max over components.
// Returns 0 for an empty or edgeless graph.
func (g *Graph) Diameter() int {
	pw := AcquireParWorkspace()
	defer ReleaseParWorkspace(pw)
	return diameter(pw, g)
}

// Eccentricity returns max_u dist(v, u) within v's component.
func (g *Graph) Eccentricity(v int) int {
	pw := AcquireParWorkspace()
	defer ReleaseParWorkspace(pw)
	return maxDist(ParBFS(pw, g, v, 1))
}

// WeakDiameter returns max over u,v in S of dist_G(u, v): distances are
// measured in the whole graph g, not the induced subgraph. Returns -1 if
// some pair of S is disconnected in g.
func (g *Graph) WeakDiameter(s []int32) int {
	pw := AcquireParWorkspace()
	defer ReleaseParWorkspace(pw)
	best := 0
	for _, v := range s {
		dist := ParBFS(pw, g, int(v), 1)
		for _, u := range s {
			d := dist[u]
			if d == Unreachable {
				return -1
			}
			best = max(best, int(d))
		}
	}
	return best
}

// StrongDiameter returns the diameter of the subgraph induced by S, or -1 if
// that subgraph is disconnected.
func (g *Graph) StrongDiameter(s []int32) int {
	pw := AcquireParWorkspace()
	defer ReleaseParWorkspace(pw)
	// The induced graph lives in the workspace's Induced buffers, which the
	// traversal kernels below never touch.
	sub, _ := g.InducedWithWorkspace(pw, s)
	if _, count := ParComponents(pw, sub, nil, 1); count > 1 {
		return -1
	}
	return diameter(pw, sub)
}

// diameter is the all-sources BFS sweep behind Diameter.
func diameter(pw *ParWorkspace, g *Graph) int {
	best := 0
	for s := 0; s < g.N(); s++ {
		best = max(best, maxDist(ParBFS(pw, g, s, 1)))
	}
	return best
}

// maxDist returns the largest finite distance in dist (0 when none).
func maxDist(dist []int32) int {
	best := 0
	for _, d := range dist {
		best = max(best, int(d))
	}
	return best
}
