// Package problems builds the concrete packing and covering ILP instances
// studied in the paper — maximum independent set, maximum cut (as a derived
// measurement), minimum vertex cover, minimum (k-distance) dominating set,
// and maximum matching — together with verifiers and exact-optimum oracles
// on the graph families where polynomial-time exact optimization is
// possible (trees, bipartite graphs, cycles). These oracles are what make
// the approximation-ratio experiments honest at laptop scale (see the
// substitution table in DESIGN.md).
//
// MIS and vertex cover are edge-form instances built by ilp.FromGraph in one
// pass over the graph's CSR; their primal (communication) graph is the input
// graph itself, so the solvers never rebuild it.
package problems

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/ilp"
	"repro/internal/matching"
	"repro/internal/treedp"
)

// Problem identifies a concrete optimization problem.
type Problem int

const (
	// MIS is maximum(-weight) independent set (packing).
	MIS Problem = iota + 1
	// MinVertexCover is minimum(-weight) vertex cover (covering).
	MinVertexCover
	// MinDominatingSet is minimum(-weight) dominating set (covering).
	MinDominatingSet
	// KDominatingSet is minimum k-distance dominating set (covering); the
	// paper's Definition 1.3 example. Use BuildK for this one.
	KDominatingSet
	// MaxMatching is maximum matching encoded as a packing ILP over edge
	// variables (one variable per edge, one constraint per vertex).
	MaxMatching
)

// String implements fmt.Stringer.
func (p Problem) String() string {
	switch p {
	case MIS:
		return "max-independent-set"
	case MinVertexCover:
		return "min-vertex-cover"
	case MinDominatingSet:
		return "min-dominating-set"
	case KDominatingSet:
		return "k-dominating-set"
	case MaxMatching:
		return "max-matching"
	default:
		return fmt.Sprintf("Problem(%d)", int(p))
	}
}

// Kind returns whether the problem is packing or covering.
func (p Problem) Kind() ilp.Kind {
	switch p {
	case MIS, MaxMatching:
		return ilp.Packing
	default:
		return ilp.Covering
	}
}

// ErrUnsupported is returned for (problem, operation) pairs that do not
// apply, e.g. exact optima on graph classes without a poly-time algorithm.
var ErrUnsupported = errors.New("problems: unsupported")

// unit returns n unit weights.
func unit(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Build constructs the ILP instance of the problem on g. weights may be nil
// for unit weights (required nil for MaxMatching, whose variables are
// edges). For KDominatingSet use BuildK.
func Build(p Problem, g *graph.Graph, weights []int64) (*ilp.Instance, error) {
	switch p {
	case MIS:
		return buildEdgeConstraints(ilp.Packing, g, weights)
	case MinVertexCover:
		return buildEdgeConstraints(ilp.Covering, g, weights)
	case MinDominatingSet:
		return BuildK(1, g, weights)
	case KDominatingSet:
		return nil, fmt.Errorf("%w: use BuildK for k-distance dominating set", ErrUnsupported)
	case MaxMatching:
		if weights != nil {
			return nil, fmt.Errorf("%w: matching variables are edges; weights must be nil", ErrUnsupported)
		}
		return buildMatching(g)
	default:
		return nil, fmt.Errorf("%w: unknown problem %d", ErrUnsupported, int(p))
	}
}

// buildEdgeConstraints makes x_u + x_v <= 1 (packing) or >= 1 (covering)
// per edge, with g itself as the instance's primal graph.
func buildEdgeConstraints(kind ilp.Kind, g *graph.Graph, weights []int64) (*ilp.Instance, error) {
	if weights == nil {
		weights = unit(g.N())
	}
	return ilp.FromGraph(kind, g, weights)
}

// BuildK constructs the k-distance dominating set instance: minimize the
// weight of D subject to N^k(v) ∩ D nonempty for every v.
func BuildK(k int, g *graph.Graph, weights []int64) (*ilp.Instance, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k must be >= 1", ErrUnsupported)
	}
	if weights == nil {
		weights = unit(g.N())
	}
	b := ilp.NewBuilder(ilp.Covering, weights)
	for v := 0; v < g.N(); v++ {
		ball := g.Ball(v, k)
		terms := make([]ilp.Term, len(ball))
		for i, u := range ball {
			terms[i] = ilp.Term{Var: int(u), Coeff: 1}
		}
		b.AddConstraint(terms, 1)
	}
	return b.Build()
}

// buildMatching encodes maximum matching: one 0/1 variable per edge, and
// for every vertex the constraint that at most one incident edge is chosen.
// Variable i corresponds to EdgeList()[i].
func buildMatching(g *graph.Graph) (*ilp.Instance, error) {
	edges := g.EdgeList()
	b := ilp.NewBuilder(ilp.Packing, unit(len(edges)))
	incident := make([][]ilp.Term, g.N())
	for i, e := range edges {
		incident[e[0]] = append(incident[e[0]], ilp.Term{Var: i, Coeff: 1})
		incident[e[1]] = append(incident[e[1]], ilp.Term{Var: i, Coeff: 1})
	}
	for v := 0; v < g.N(); v++ {
		if len(incident[v]) > 0 {
			b.AddConstraint(incident[v], 1)
		}
	}
	return b.Build()
}

// Verify checks that the solution is combinatorially valid for the problem
// on g (independent / covering / dominating / matching), independent of the
// ILP encoding.
func Verify(p Problem, g *graph.Graph, sol ilp.Solution) bool {
	return VerifyK(p, 1, g, sol)
}

// VerifyK is Verify with an explicit distance parameter for KDominatingSet
// (and MinDominatingSet with k = 1).
func VerifyK(p Problem, k int, g *graph.Graph, sol ilp.Solution) bool {
	switch p {
	case MIS:
		ok := true
		g.Edges(func(u, v int) {
			if sol[u] && sol[v] {
				ok = false
			}
		})
		return ok
	case MinVertexCover:
		ok := true
		g.Edges(func(u, v int) {
			if !sol[u] && !sol[v] {
				ok = false
			}
		})
		return ok
	case MinDominatingSet, KDominatingSet:
		for v := 0; v < g.N(); v++ {
			dominated := false
			for _, u := range g.Ball(v, k) {
				if sol[u] {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	case MaxMatching:
		edges := g.EdgeList()
		deg := make([]int, g.N())
		for i, e := range edges {
			if i < len(sol) && sol[i] {
				deg[e[0]]++
				deg[e[1]]++
			}
		}
		for _, d := range deg {
			if d > 1 {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// ExactOptimum computes the exact unit-weight optimum of the problem on g
// when a polynomial-time method applies:
//
//   - forests: tree DP for MIS / MVC / MDS;
//   - bipartite graphs: Hopcroft–Karp + König for MIS / MVC / MaxMatching;
//   - MaxMatching additionally on general graphs is unsupported here (no
//     Blossom implementation) — use bipartite inputs.
//
// It returns ErrUnsupported when no exact method applies.
func ExactOptimum(p Problem, g *graph.Graph) (int64, error) {
	isForest := g.Girth() == -1
	switch p {
	case MIS:
		if isForest {
			_, val, err := treedp.MaxIndependentSet(g, nil)
			return val, err
		}
		if r := matching.BipartiteAuto(g); r != nil {
			return int64(len(r.MaxIndependentSet)), nil
		}
	case MinVertexCover:
		if isForest {
			_, val, err := treedp.MinVertexCover(g, nil)
			return val, err
		}
		if r := matching.BipartiteAuto(g); r != nil {
			return int64(len(r.MinVertexCover)), nil
		}
	case MinDominatingSet:
		if isForest {
			_, val, err := treedp.MinDominatingSet(g, nil)
			return val, err
		}
	case MaxMatching:
		if r := matching.BipartiteAuto(g); r != nil {
			return int64(r.Size), nil
		}
	}
	return 0, fmt.Errorf("%w: no exact method for %v on this graph", ErrUnsupported, p)
}
