// Package fractional computes exact optima of the *fractional* relaxations
// of vertex cover and independent set. The paper contrasts its integer
// results with the fractional case: Kuhn–Moscibroda–Wattenhofer showed
// (1±ε)-approximate fractional packing/covering LPs take only O(log n / ε)
// rounds, and Section 1.2 notes their approach does not extend to ILPs —
// the gap this paper closes. This package provides the fractional side as
// an exact oracle, used by the experiments as an upper bound for MIS on
// graphs where the integral optimum has no polynomial oracle (odd cycles,
// random regular graphs).
//
// Method (Nemhauser–Trotter): the vertex cover LP
//
//	min Σ x_v  s.t.  x_u + x_v >= 1 per edge, 0 <= x <= 1
//
// always has a half-integral optimal solution, computable from a minimum
// vertex cover of the bipartite double cover of G: vertex v is covered on
// both sides → x_v = 1, one side → x_v = 1/2, neither → x_v = 0. By LP
// duality and complementation, α*(G) = n − τ*(G) bounds the independence
// number from above.
package fractional

import (
	"repro/internal/graph"
	"repro/internal/matching"
)

// Value is a half-integral LP value expressed in half-units, so it stays
// exact in integer arithmetic: HalfUnits = 2·value.
type Value struct {
	HalfUnits int64
}

// Float returns the value as a float64.
func (v Value) Float() float64 { return float64(v.HalfUnits) / 2 }

// Solution is a half-integral assignment: X[v] ∈ {0, 1, 2} counts
// half-units (0, 1/2, 1).
type Solution struct {
	X []int8
}

// Weight returns the total of the assignment in half-units.
func (s Solution) Weight() Value {
	var total int64
	for _, x := range s.X {
		total += int64(x)
	}
	return Value{HalfUnits: total}
}

// doubleCover builds the bipartite double cover: vertices (v, 0) = v and
// (v, 1) = n + v; every edge {u, v} becomes (u,0)-(v,1) and (v,0)-(u,1).
func doubleCover(g *graph.Graph) *graph.Graph {
	n := g.N()
	b := graph.NewBuilder(2 * n)
	g.Edges(func(u, v int) {
		b.AddEdge(u, n+v)
		b.AddEdge(v, n+u)
	})
	return b.Build()
}

// VertexCoverLP returns an optimal half-integral solution of the vertex
// cover LP and its value τ*(G).
func VertexCoverLP(g *graph.Graph) (Solution, Value) {
	n := g.N()
	dc := doubleCover(g)
	side := make([]int8, 2*n)
	for v := 0; v < n; v++ {
		side[v] = 0
		side[n+v] = 1
	}
	r := matching.Bipartite(dc, side)
	inCover := make([]bool, 2*n)
	for _, v := range r.MinVertexCover {
		inCover[v] = true
	}
	sol := Solution{X: make([]int8, n)}
	for v := 0; v < n; v++ {
		switch {
		case inCover[v] && inCover[n+v]:
			sol.X[v] = 2
		case inCover[v] || inCover[n+v]:
			sol.X[v] = 1
		}
	}
	return sol, sol.Weight()
}

// IndependentSetLP returns α*(G) = n − τ*(G), the fractional relaxation
// optimum of maximum independent set (an upper bound on α(G)), together
// with the complementary half-integral solution.
func IndependentSetLP(g *graph.Graph) (Solution, Value) {
	cover, tau := VertexCoverLP(g)
	sol := Solution{X: make([]int8, g.N())}
	for v := range sol.X {
		sol.X[v] = 2 - cover.X[v]
	}
	return sol, Value{HalfUnits: 2*int64(g.N()) - tau.HalfUnits}
}

// VerifyCoverLP checks LP feasibility of a half-integral cover: every edge
// has x_u + x_v >= 1 (i.e. >= 2 half-units).
func VerifyCoverLP(g *graph.Graph, s Solution) bool {
	ok := true
	g.Edges(func(u, v int) {
		if int(s.X[u])+int(s.X[v]) < 2 {
			ok = false
		}
	})
	return ok
}

// VerifyISLP checks LP feasibility of a half-integral independent set:
// every edge has x_u + x_v <= 1.
func VerifyISLP(g *graph.Graph, s Solution) bool {
	ok := true
	g.Edges(func(u, v int) {
		if int(s.X[u])+int(s.X[v]) > 2 {
			ok = false
		}
	})
	return ok
}
