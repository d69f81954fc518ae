package ldd

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

func TestMPXDistributedMatchesOracle(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Cycle(80),
		gen.Grid(9, 9),
		gen.CliquePlusPath(12, 20),
		gen.Torus(8, 8),
	}
	for gi, g := range graphs {
		for seed := uint64(0); seed < 4; seed++ {
			p := ENParams{Lambda: 0.25, Seed: seed}
			oracle := must(MPXCtx(context.Background(), g, p))
			dist, stats, err := MPXDistributed(g, p, seed%2 == 0)
			if err != nil {
				t.Fatalf("graph %d seed %d: %v", gi, seed, err)
			}
			for v := range oracle.ClusterOf {
				if oracle.ClusterOf[v] != dist.ClusterOf[v] {
					t.Fatalf("graph %d seed %d: vertex %d oracle=%d dist=%d",
						gi, seed, v, oracle.ClusterOf[v], dist.ClusterOf[v])
				}
			}
			if len(oracle.CutEdges) != len(dist.CutEdges) {
				t.Fatalf("graph %d seed %d: cut edges %d vs %d",
					gi, seed, len(oracle.CutEdges), len(dist.CutEdges))
			}
			if stats.Messages == 0 {
				t.Fatal("no messages exchanged")
			}
		}
	}
}

func TestMPXDistributedIsCongest(t *testing.T) {
	// The whole point of the single-label protocol: every message fits the
	// O(log n) CONGEST budget (Section 6's extension direction).
	g := gen.Torus(12, 12)
	_, stats, err := MPXDistributed(g, ENParams{Lambda: 0.2, Seed: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CongestOK {
		t.Fatalf("MPX protocol exceeded the CONGEST budget: max %d bits", stats.MaxMessageBits)
	}
	if stats.MaxMessageBits != 96 {
		t.Fatalf("message size = %d bits, want 96", stats.MaxMessageBits)
	}
}

func TestMPXDistributedExecutorsAgree(t *testing.T) {
	g := gen.Grid(10, 10)
	p := ENParams{Lambda: 0.3, Seed: 7}
	seq, _, err1 := MPXDistributed(g, p, true)
	par, _, err2 := MPXDistributed(g, p, false)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for v := range seq.ClusterOf {
		if seq.ClusterOf[v] != par.ClusterOf[v] {
			t.Fatalf("executors disagree at %d", v)
		}
	}
}
