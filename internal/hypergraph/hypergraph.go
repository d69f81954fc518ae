// Package hypergraph provides the hypergraph substrate used to model
// packing and covering integer linear programs in the LOCAL model, following
// Definition 1.3 of Chang–Li (PODC 2023): every ILP variable is a vertex and
// every constraint is a hyperedge containing the variables with nonzero
// coefficient.
//
// Communication in the hypergraph LOCAL model lets a vertex talk to every
// vertex it shares a hyperedge with, so the communication structure is the
// primal graph (a clique on every hyperedge). Distances, balls, and
// decompositions on a hypergraph are defined on that primal graph; this
// package materializes it once and exposes the same query surface as
// internal/graph.
package hypergraph

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// H is an immutable hypergraph on vertices 0..N-1. Build with NewBuilder or
// the convenience constructors.
type H struct {
	n      int
	edges  [][]int32 // sorted vertex lists per hyperedge
	primal *graph.Graph
}

// Builder accumulates hyperedges.
type Builder struct {
	n     int
	edges [][]int32
}

// NewBuilder returns a builder for a hypergraph on n vertices.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge records a hyperedge on the given vertices. Out-of-range vertices
// are dropped; duplicate vertices within a hyperedge are collapsed; empty
// hyperedges (after filtering) are kept, because an empty covering
// constraint is semantically meaningful (unsatisfiable) and the ILP layer
// wants to detect it.
func (b *Builder) AddEdge(vertices ...int) int {
	e := make([]int32, 0, len(vertices))
	for _, v := range vertices {
		if v >= 0 && v < b.n {
			e = append(e, int32(v))
		}
	}
	slices.Sort(e)
	b.edges = append(b.edges, slices.Compact(e))
	return len(b.edges) - 1
}

// Build finalizes the hypergraph and its primal graph.
func (b *Builder) Build() *H {
	h := &H{n: b.n, edges: b.edges}
	gb := graph.NewBuilder(b.n)
	for _, e := range b.edges {
		for i, u := range e {
			for _, v := range e[i+1:] {
				gb.AddEdge(int(u), int(v))
			}
		}
	}
	h.primal = gb.Build()
	return h
}

// N returns the number of vertices.
func (h *H) N() int { return h.n }

// M returns the number of hyperedges.
func (h *H) M() int { return len(h.edges) }

// Edge returns the sorted vertex list of hyperedge e. The slice aliases
// internal storage and must not be modified.
func (h *H) Edge(e int) []int32 { return h.edges[e] }

// Primal returns the primal (communication) graph: an edge between every
// pair of vertices that share a hyperedge.
func (h *H) Primal() *graph.Graph { return h.primal }

// Rank returns the maximum hyperedge size.
func (h *H) Rank() int {
	r := 0
	for _, e := range h.edges {
		if len(e) > r {
			r = len(e)
		}
	}
	return r
}

// String implements fmt.Stringer.
func (h *H) String() string {
	return fmt.Sprintf("hypergraph(n=%d, m=%d, rank=%d)", h.n, h.M(), h.Rank())
}

// FromGraph lifts an ordinary graph to a hypergraph whose hyperedges are
// exactly the graph's edges (rank 2). Useful for problems like vertex cover
// whose constraints live on edges.
func FromGraph(g *graph.Graph) *H {
	b := NewBuilder(g.N())
	g.Edges(func(u, v int) { b.AddEdge(u, v) })
	return b.Build()
}

// ClosedNeighborhoods returns the hypergraph whose hyperedges are the closed
// neighborhoods N^1(v) for every vertex of g — the dominating-set
// constraint hypergraph.
func ClosedNeighborhoods(g *graph.Graph) *H {
	return DistanceNeighborhoods(g, 1)
}

// DistanceNeighborhoods returns the hypergraph whose hyperedges are the
// balls N^k(v) of g — the k-distance dominating-set constraint hypergraph
// from the paper's Definition 1.3 example. One communication round on this
// hypergraph costs k rounds on g; SimulationCost reports that factor.
func DistanceNeighborhoods(g *graph.Graph, k int) *H {
	b := NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		ball := g.Ball(v, k)
		vs := make([]int, len(ball))
		for i, u := range ball {
			vs[i] = int(u)
		}
		b.AddEdge(vs...)
	}
	return b.Build()
}

// SimulationCost returns the number of rounds of the base graph g needed to
// simulate one round of the hypergraph h when h's hyperedges are
// k-neighborhoods of g (Definition 1.3 discussion). For general hypergraphs
// it is the maximum, over hyperedges, of the weak diameter of the hyperedge
// in g — the distance any two co-edge vertices must bridge.
func SimulationCost(g *graph.Graph, h *H) int {
	cost := 0
	for e := 0; e < h.M(); e++ {
		wd := g.WeakDiameter(h.Edge(e))
		if wd > cost {
			cost = wd
		}
	}
	return cost
}
