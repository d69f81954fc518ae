// Example: k-distance dominating set on a torus network — the motivating
// example of the paper's Definition 1.3.
//
//	go run ./examples/dominatingset
//
// A monitoring service must place probes so that every node has a probe
// within k hops, minimizing probes. That is exactly the minimum k-distance
// dominating set: a covering ILP whose constraint hypergraph has one
// hyperedge N^k(v) per vertex. One communication round on that hypergraph
// costs k rounds on the real network; the example reports both.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/covering"
	"repro/internal/graph/gen"
	"repro/internal/hypergraph"
	"repro/internal/problems"
)

func main() {
	g := gen.Torus(16, 16) // a 256-node wraparound mesh
	for _, k := range []int{1, 2, 3} {
		inst, err := problems.BuildK(k, g, nil)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := covering.SolveCtx(context.Background(), inst, covering.Params{Epsilon: 0.3, Seed: 7, PrepRuns: 2})
		if err != nil {
			log.Fatal(err)
		}
		if !problems.VerifyK(problems.KDominatingSet, k, g, rep.Solution) {
			log.Fatalf("k=%d: output is not a %d-dominating set", k, k)
		}
		// Packing lower bound: a probe covers at most |N^k| nodes.
		ball := len(g.Ball(0, k))
		lb := (g.N() + ball - 1) / ball
		// Definition 1.3: simulating the hypergraph costs k rounds per round.
		simCost := hypergraph.SimulationCost(g, hypergraph.DistanceNeighborhoods(g, k))
		fmt.Printf("k=%d: probes=%d (lower bound %d, ratio %.2f), hyper-rounds=%d, base-graph rounds=%d (x%d per Def. 1.3)\n",
			k, rep.Value, lb, float64(rep.Value)/float64(lb), rep.Rounds, rep.Rounds*simCost, simCost)
	}
}
