package hypergraph

import (
	"testing"

	"repro/internal/graph/gen"
)

func TestBasicBuild(t *testing.T) {
	b := NewBuilder(5)
	e0 := b.AddEdge(0, 1, 2)
	e1 := b.AddEdge(2, 3)
	e2 := b.AddEdge(4)
	h := b.Build()
	if h.N() != 5 || h.M() != 3 {
		t.Fatalf("n=%d m=%d", h.N(), h.M())
	}
	if e0 != 0 || e1 != 1 || e2 != 2 {
		t.Fatal("edge ids not sequential")
	}
	if h.Rank() != 3 {
		t.Fatalf("rank = %d", h.Rank())
	}
}

func TestEdgeNormalization(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(3, 1, 1, -5, 99, 2)
	h := b.Build()
	e := h.Edge(0)
	want := []int32{1, 2, 3}
	if len(e) != 3 {
		t.Fatalf("edge = %v", e)
	}
	for i := range e {
		if e[i] != want[i] {
			t.Fatalf("edge = %v, want %v", e, want)
		}
	}
}

func TestPrimalGraph(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1, 2) // clique {0,1,2}
	b.AddEdge(3, 4)
	h := b.Build()
	p := h.Primal()
	if p.M() != 3+1 {
		t.Fatalf("primal m = %d", p.M())
	}
	if !p.HasEdge(0, 2) {
		t.Fatal("primal missing clique edge")
	}
	if p.HasEdge(2, 3) {
		t.Fatal("primal has phantom edge")
	}
}

func TestFromGraph(t *testing.T) {
	g := gen.Cycle(6)
	h := FromGraph(g)
	if h.M() != 6 || h.Rank() != 2 {
		t.Fatalf("m=%d rank=%d", h.M(), h.Rank())
	}
	// Primal of a rank-2 hypergraph is the graph itself.
	if h.Primal().M() != g.M() {
		t.Fatal("primal should equal the source graph")
	}
}

func TestClosedNeighborhoods(t *testing.T) {
	g := gen.Star(5) // center 0, leaves 1..4
	h := ClosedNeighborhoods(g)
	if h.M() != 5 {
		t.Fatalf("m = %d", h.M())
	}
	// The hyperedge of the center is the whole star.
	if len(h.Edge(0)) != 5 {
		t.Fatalf("center hyperedge = %v", h.Edge(0))
	}
	// A leaf's hyperedge is {leaf, center}.
	if len(h.Edge(1)) != 2 {
		t.Fatalf("leaf hyperedge = %v", h.Edge(1))
	}
}

func TestDistanceNeighborhoods(t *testing.T) {
	g := gen.Path(7)
	h := DistanceNeighborhoods(g, 2)
	// Middle vertex 3: ball of radius 2 has 5 vertices.
	if len(h.Edge(3)) != 5 {
		t.Fatalf("middle hyperedge size = %d", len(h.Edge(3)))
	}
	// Endpoint 0: ball has 3 vertices.
	if len(h.Edge(0)) != 3 {
		t.Fatalf("end hyperedge size = %d", len(h.Edge(0)))
	}
}

func TestSimulationCost(t *testing.T) {
	g := gen.Path(9)
	h := DistanceNeighborhoods(g, 2)
	// Any two vertices sharing a radius-2 ball are within distance 4.
	cost := SimulationCost(g, h)
	if cost != 4 {
		t.Fatalf("simulation cost = %d, want 4", cost)
	}
	h1 := FromGraph(g)
	if c := SimulationCost(g, h1); c != 1 {
		t.Fatalf("rank-2 simulation cost = %d, want 1", c)
	}
}
