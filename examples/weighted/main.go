// Example: the extensions — weighted decomposition and the Section-4
// alternative packing pipeline.
//
//	go run ./examples/weighted
//
// The end of Section 4 sketches an alternative proof of Theorem 1.2
// (credited to an anonymous reviewer): run Θ(ε⁻² log n) ordinary
// decompositions in parallel, reweight every variable by how often it
// appears in the induced packing solutions, then run a *weighted*
// low-diameter decomposition against those proxy weights. Both building
// blocks are implemented here:
//
//   - ldd.ChangLiWeighted bounds the *deleted weight* by ε·Σw w.h.p. — the
//     first part demonstrates it protecting a few very heavy vertices that
//     an unweighted carve would happily delete;
//   - packing.SolveAlternative runs the full pipeline on a MIS instance.
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
	// Part 1: weighted decomposition. A long cycle with heavy "data
	// centers" every 100 hops; deleting one costs as much as 500 ordinary
	// vertices.
	g := gen.Cycle(3000)
	w := make([]int64, g.N())
	var total int64
	for i := range w {
		w[i] = 1
		if i%100 == 0 {
			w[i] = 500
		}
		total += w[i]
	}
	eps := 0.2
	dec := ldd.ChangLiWeighted(g, w, ldd.Params{Epsilon: eps, Seed: 8, Scale: 0.002})
	fmt.Printf("weighted LDD on C3000 with 30 heavy vertices (total weight %d):\n", total)
	fmt.Printf("  clusters=%d, deleted vertices=%d, deleted WEIGHT=%d (budget %.0f)\n",
		dec.NumClusters, dec.UnclusteredCount(), dec.DeletedWeight(w), eps*float64(total))

	// Part 2: the alternative packing pipeline on MIS.
	cyc := gen.Cycle(300)
	inst, err := problems.Build(problems.MIS, cyc, nil)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := problems.ExactOptimum(problems.MIS, cyc)
	if err != nil {
		log.Fatal(err)
	}
	main1 := packing.Solve(inst, packing.Params{Epsilon: eps, Seed: 8, PrepRuns: 3})
	alt, err := packing.SolveAlternative(context.Background(), inst, packing.Params{Epsilon: eps, Seed: 8}, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMIS on C300 (optimum %d):\n", opt)
	fmt.Printf("  main Theorem 1.2 pipeline:   value=%d (ratio %.3f)\n",
		main1.Value, float64(main1.Value)/float64(opt))
	fmt.Printf("  Section-4 alternative:       value=%d (ratio %.3f)\n",
		alt.Value, float64(alt.Value)/float64(opt))
	fmt.Printf("both within the (1-ε) = %.2f target: %v\n",
		1-eps,
		float64(main1.Value) >= (1-eps)*float64(opt) && float64(alt.Value) >= (1-eps)*float64(opt))
}
