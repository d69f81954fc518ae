// Quickstart: decompose a graph and solve a packing problem in ~30 lines.
//
//	go run ./examples/quickstart
//
// This walks the two headline capabilities of the library: a low-diameter
// decomposition with a with-high-probability guarantee (Theorem 1.1), and a
// (1-ε)-approximate maximum independent set (Theorem 1.2), scored against
// the exact optimum. Each algorithm has one context-taking entry point;
// internal/algo runs the same ones by name.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/graph/gen"
	"repro/internal/ldd"
	"repro/internal/packing"
	"repro/internal/problems"
)

func main() {
	ctx := context.Background()
	// A 30x30 grid network: 900 vertices.
	g := gen.Grid(30, 30)

	// 1. Low-diameter decomposition: at most 20% of vertices unclustered,
	//    with high probability (not just in expectation). The paper's radius
	//    constants exceed the diameter of any laptop-scale graph, so Scale
	//    shrinks them until the grid splits into several clusters.
	dec, err := ldd.ChangLiCtx(ctx, g, ldd.Params{Epsilon: 0.2, Seed: 42, Scale: 0.0001})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decomposition: %d clusters, %.1f%% unclustered, %d LOCAL rounds\n",
		dec.NumClusters, 100*dec.UnclusteredFraction(), dec.Rounds)

	// 2. (1-ε)-approximate maximum independent set.
	inst, err := problems.Build(problems.MIS, g, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := packing.SolveCtx(ctx, inst, packing.Params{Epsilon: 0.2, Seed: 42, PrepRuns: 3})
	if err != nil {
		log.Fatal(err)
	}
	opt, err := problems.ExactOptimum(problems.MIS, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MIS: value %d vs optimum %d (ratio %.3f, target >= %.2f), feasible=%v\n",
		res.Value, opt, float64(res.Value)/float64(opt), 0.8, problems.Verify(problems.MIS, g, res.Solution))
}
