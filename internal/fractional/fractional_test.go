package fractional

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/problems"
	"repro/internal/xrand"
)

func TestOddCycle(t *testing.T) {
	// τ*(C_{2k+1}) = (2k+1)/2: all-half is optimal and beats the integral
	// τ = k+1.
	g := gen.Cycle(9)
	sol, tau := VertexCoverLP(g)
	if !VerifyCoverLP(g, sol) {
		t.Fatal("LP cover infeasible")
	}
	if tau.HalfUnits != 9 { // 9 half-units = 4.5
		t.Fatalf("tau* = %v, want 4.5", tau.Float())
	}
	_, alpha := IndependentSetLP(g)
	if alpha.Float() != 4.5 {
		t.Fatalf("alpha* = %v, want 4.5", alpha.Float())
	}
}

func TestCompleteGraph(t *testing.T) {
	// τ*(K_n): the all-half solution gives n/2; integral τ = n-1.
	g := gen.Complete(6)
	sol, tau := VertexCoverLP(g)
	if !VerifyCoverLP(g, sol) {
		t.Fatal("infeasible")
	}
	if tau.Float() != 3 {
		t.Fatalf("tau*(K6) = %v, want 3", tau.Float())
	}
}

func TestBipartiteIsIntegral(t *testing.T) {
	// On bipartite graphs the LP has an integral optimum equal to τ
	// (König): no half values needed in the optimum VALUE (the solution
	// may still use halves, but the value matches).
	for _, g := range []*graph.Graph{gen.Cycle(10), gen.Path(9), gen.CompleteBipartite(3, 5), gen.Grid(5, 6)} {
		_, tau := VertexCoverLP(g)
		want, err := problems.ExactOptimum(problems.MinVertexCover, g)
		if err != nil {
			t.Fatal(err)
		}
		if tau.Float() != float64(want) {
			t.Fatalf("bipartite tau* = %v != tau = %d", tau.Float(), want)
		}
	}
}

func TestLPBoundsSandwich(t *testing.T) {
	// τ*/1 <= τ <= 2τ* and α <= α* on random graphs (α via brute force).
	rng := xrand.New(3)
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(9)
		g := gen.GNP(n, 0.35, rng)
		sol, tau := VertexCoverLP(g)
		if !VerifyCoverLP(g, sol) {
			t.Fatal("infeasible LP cover")
		}
		tauInt := bruteVC(g)
		if tau.Float() > float64(tauInt)+1e-9 {
			t.Fatalf("tau* %v > tau %d", tau.Float(), tauInt)
		}
		if 2*tau.Float() < float64(tauInt)-1e-9 {
			t.Fatalf("2tau* %v < tau %d (half-integrality bound)", 2*tau.Float(), tauInt)
		}
		isSol, alpha := IndependentSetLP(g)
		if !VerifyISLP(g, isSol) {
			t.Fatal("infeasible LP independent set")
		}
		alphaInt := int64(n) - int64(tauInt) // Gallai
		if alpha.Float() < float64(alphaInt)-1e-9 {
			t.Fatalf("alpha* %v < alpha %d", alpha.Float(), alphaInt)
		}
	}
}

func TestStarLP(t *testing.T) {
	// Star: LP optimum is integral (bipartite): center alone.
	g := gen.Star(8)
	_, tau := VertexCoverLP(g)
	if tau.Float() != 1 {
		t.Fatalf("tau*(star) = %v", tau.Float())
	}
}

func TestEdgelessGraph(t *testing.T) {
	g := graph.NewBuilder(5).Build()
	sol, tau := VertexCoverLP(g)
	if tau.HalfUnits != 0 {
		t.Fatalf("edgeless tau* = %v", tau.Float())
	}
	if !VerifyCoverLP(g, sol) || !VerifyISLP(g, Solution{X: []int8{2, 2, 2, 2, 2}}) {
		t.Fatal("verification on edgeless graph")
	}
}

func TestPetersenFractional(t *testing.T) {
	// Petersen graph: 3-regular vertex-transitive, alpha = 4, tau = 6,
	// tau* = 5 (all-half), alpha* = 5.
	b := graph.NewBuilder(10)
	for i := 0; i < 5; i++ {
		b.AddEdge(i, (i+1)%5)
		b.AddEdge(5+i, 5+(i+2)%5)
		b.AddEdge(i, 5+i)
	}
	g := b.Build()
	_, tau := VertexCoverLP(g)
	if tau.Float() != 5 {
		t.Fatalf("tau*(Petersen) = %v, want 5", tau.Float())
	}
	_, alpha := IndependentSetLP(g)
	if alpha.Float() != 5 {
		t.Fatalf("alpha*(Petersen) = %v, want 5", alpha.Float())
	}
}

// --- brute-force helpers ----------------------------------------------------

func bruteVC(g *graph.Graph) int {
	n := g.N()
	best := n
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		g.Edges(func(u, v int) {
			if mask&(1<<u) == 0 && mask&(1<<v) == 0 {
				ok = false
			}
		})
		if ok {
			if c := popcount(mask); c < best {
				best = c
			}
		}
	}
	return best
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
