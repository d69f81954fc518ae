// Package lower implements the Appendix B lower-bound machinery of the
// paper (Theorem 1.4): the reductions and the indistinguishability argument
// showing that (1±ε)-approximate MIS, MaxCut, MinVC and MinDS require
// Ω(log n / ε) rounds in the LOCAL model.
//
// The paper's proof uses LPS Ramanujan graphs X^{p,q}; per the substitution
// table in DESIGN.md we use high-girth random regular graphs, which provide
// the two properties the argument actually needs: girth Ω(log n) (so small
// balls are trees) and an independence-number gap between the bipartite and
// non-bipartite family members.
//
// The experimental core is the indistinguishability mechanism (Theorem
// B.2): a t-round randomized algorithm's per-vertex output distribution
// depends only on the isomorphism type of the vertex's t-ball, so on two
// d-regular graphs of girth > 2t+2 every vertex joins the output with the
// same probability p*. We verify this by running an honest t-round
// algorithm (iterated Luby MIS) on bipartite and non-bipartite high-girth
// graphs and comparing the per-vertex inclusion rates.
//
// The reductions:
//
//   - Theorem B.3: edge subdivision amplifies the lower bound from constant
//     ε₀ to any ε (SubdivideForMIS / LiftMIS);
//   - Theorem B.5: the dominating-set-to-vertex-cover gadget with
//     γ(G*) = τ(G) (Gadget);
//   - Theorem B.7: the MaxCut subdivision with the parity lift (LiftCut).
package lower

import (
	"context"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// PriorityMIS runs `rounds` iterations of Luby's priority algorithm: in
// each iteration every live vertex draws a fresh random priority, local
// maxima join the independent set, and they and their neighbors leave the
// graph. The output after t iterations is a function of the t-ball only —
// exactly the class of algorithms the Theorem B.2 argument quantifies over.
func PriorityMIS(g *graph.Graph, rounds int, seed uint64) []bool {
	n := g.N()
	inSet := make([]bool, n)
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	prio := make([]uint64, n)
	for r := 0; r < rounds; r++ {
		for v := 0; v < n; v++ {
			rng := xrand.Stream(seed, v, uint64(r)+0x10b9)
			prio[v] = rng.Uint64()
		}
		var joined []int32
		for v := 0; v < n; v++ {
			if !live[v] {
				continue
			}
			isMax := true
			for _, w := range g.Neighbors(v) {
				if live[w] && (prio[w] > prio[v] || (prio[w] == prio[v] && int(w) > v)) {
					isMax = false
					break
				}
			}
			if isMax {
				joined = append(joined, int32(v))
			}
		}
		for _, v := range joined {
			inSet[v] = true
			live[v] = false
			for _, w := range g.Neighbors(int(v)) {
				live[w] = false
			}
		}
	}
	return inSet
}

// InclusionRateCtx runs PriorityMIS over many seeds and returns the
// average fraction of vertices included — the empirical per-vertex
// inclusion probability p* (identical for all vertices of a graph whose
// t-balls are isomorphic). The context is checked once per trial, so a
// deadline-bounded estimate returns ctx.Err() promptly instead of draining
// all trials.
func InclusionRateCtx(ctx context.Context, g *graph.Graph, rounds, trials int, seed uint64) (float64, error) {
	if g.N() == 0 || trials <= 0 {
		return 0, nil
	}
	total := 0
	for trial := 0; trial < trials; trial++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		set := PriorityMIS(g, rounds, seed+uint64(trial)*0x9e37)
		for _, in := range set {
			if in {
				total++
			}
		}
	}
	return float64(total) / float64(trials) / float64(g.N()), nil
}

// Gadget builds the Theorem B.5 graph G*: for every edge e = {u, v} of g a
// new vertex w_e adjacent to u and v is added, so that the minimum
// dominating set of G* equals the minimum vertex cover of g.
func Gadget(g *graph.Graph) *graph.Graph {
	n := g.N()
	b := graph.NewBuilder(n + g.M())
	next := n
	g.Edges(func(u, v int) {
		b.AddEdge(u, v)
		b.AddEdge(u, next)
		b.AddEdge(v, next)
		next++
	})
	return b.Build()
}

// GadgetToCover converts a dominating set of Gadget(g) into a vertex cover
// of g of no larger size (the Theorem B.5 transformation): every chosen
// edge-gadget vertex w_e is replaced by one endpoint of e.
func GadgetToCover(g *graph.Graph, dom []bool) []bool {
	cover := make([]bool, g.N())
	for v := 0; v < g.N() && v < len(dom); v++ {
		cover[v] = dom[v]
	}
	idx := g.N()
	g.Edges(func(u, v int) {
		if idx < len(dom) && dom[idx] {
			cover[u] = true
		}
		idx++
	})
	// The result covers every edge: w_e dominated requires u, v, or w_e in
	// the set; the replacement keeps that endpoint.
	g.Edges(func(u, v int) {
		if !cover[u] && !cover[v] {
			// dom did not dominate w_e's neighborhood through u/v/w_e — can
			// only happen for an invalid input; patch to stay a cover.
			cover[u] = true
		}
	})
	return cover
}

// SubdivideForMIS returns G_x: every edge replaced by a path of length
// 2x+1 (Theorem B.3). Original vertices keep their ids. alpha(G_x) =
// (d·x + 1)·n/2 for a d-regular bipartite G on n vertices.
func SubdivideForMIS(g *graph.Graph, x int) *graph.Graph {
	return g.Subdivide(2 * x)
}

// LiftMIS converts an independent set of G_x back to an independent set of
// g using the random-tiebreak rule of Theorem B.3: an original vertex stays
// iff it is in the subdivided solution and wins the random ID tiebreak
// against every neighboring original vertex also in the solution.
func LiftMIS(g *graph.Graph, sub []bool, seed uint64) []bool {
	n := g.N()
	id := make([]uint64, n)
	for v := 0; v < n; v++ {
		rng := xrand.Stream(seed, v, 0x11f7)
		id[v] = rng.Uint64()
	}
	out := make([]bool, n)
	for v := 0; v < n; v++ {
		if v >= len(sub) || !sub[v] {
			continue
		}
		keep := true
		for _, w := range g.Neighbors(v) {
			if int(w) < len(sub) && sub[w] && (id[w] > id[v] || (id[w] == id[v] && int(w) > v)) {
				keep = false
				break
			}
		}
		out[v] = keep
	}
	return out
}

// LiftCut converts a cut of G_x (an edge subset, given as a per-edge
// boolean aligned with Subdivide's path edges) back to a cut of g using the
// parity rule of Theorem B.7: an original edge joins the lifted cut iff its
// path contains an odd number of cut edges. Here the cut of G_x is provided
// as a side assignment (per-vertex boolean), which determines edge cuts.
func LiftCut(g *graph.Graph, x int, sideGx []bool) []bool {
	// Reconstruct path structure: Subdivide(2x) numbers internal vertices
	// consecutively per edge in Edges() order.
	extra := 2 * x
	sideG := make([]bool, g.N())
	cutEdge := make([]bool, 0, g.M())
	next := g.N()
	g.Edges(func(u, v int) {
		// Walk the path u - w1 - ... - w_extra - v and count parity.
		parity := false
		prev := u
		for i := 0; i < extra; i++ {
			if sideGx[prev] != sideGx[next] {
				parity = !parity
			}
			prev = next
			next++
		}
		if sideGx[prev] != sideGx[v] {
			parity = !parity
		}
		cutEdge = append(cutEdge, parity)
	})
	_ = sideG
	return cutEdge
}

// CutSize counts the cut edges in a per-edge boolean aligned with Edges()
// order.
func CutSize(cut []bool) int {
	c := 0
	for _, b := range cut {
		if b {
			c++
		}
	}
	return c
}

// BallIsomorphic reports whether the radius-t balls of every vertex in g
// are trees (i.e. t < girth/2), the precondition for the
// indistinguishability argument. It checks girth > 2t.
func BallIsomorphic(g *graph.Graph, t int) bool {
	girth := g.Girth()
	return girth == -1 || girth > 2*t
}
