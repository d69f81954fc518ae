// Example: why "in expectation" is not enough — Appendix C live.
//
//	go run ./examples/ldd_failure
//
// The Elkin–Neiman decomposition guarantees E[deleted] <= ε·n, and that is
// the guarantee every pre-2023 algorithm gave. Claim C.1 exhibits a family
// (a clique with a path tail) on which the realized deletion count exceeds
// ε·n — in fact deletes nearly the whole clique — with probability Ω(ε).
// The paper's Theorem 1.1 algorithm closes exactly this gap: its ε·n bound
// holds with probability 1 - 1/poly(n).
//
// This example runs both on the adversarial family and prints the failure
// frequencies side by side.
package main

import (
	"context"
	"fmt"

	"repro/internal/graph/gen"
	"repro/internal/ldd"
	"repro/internal/stats"
)

func main() {
	ctx := context.Background()
	const n = 400
	g := gen.CliquePlusPath(n/2, n/2)
	eps := 0.2
	fmt.Printf("adversarial family: clique(%d) + path(%d), eps = %.2f\n", n/2, n/2, eps)

	const trials = 200
	enFail := stats.FailureRate(trials, func(trial int) bool {
		d, _ := ldd.ElkinNeimanCtx(ctx, g, nil, ldd.ENParams{Lambda: eps, Seed: uint64(trial) * 101}, nil)
		return d.UnclusteredFraction() > eps
	})
	clFail := stats.FailureRate(trials/4, func(trial int) bool {
		d, _ := ldd.ChangLiCtx(ctx, g, ldd.Params{Epsilon: eps, Seed: uint64(trial) * 103})
		return d.UnclusteredFraction() > eps
	})
	fmt.Printf("Elkin–Neiman (expectation-only): Pr[deleted > eps*n] ≈ %.3f  (theory: Omega(eps) ≈ %.2f-ish)\n", enFail, eps)
	fmt.Printf("Chang–Li     (high probability): Pr[deleted > eps*n] ≈ %.3f  (theory: 1/poly(n) ≈ 0)\n", clFail)

	// Show one concrete failure: find a seed where EN16 blows up.
	for seed := uint64(0); seed < 1000; seed++ {
		d, _ := ldd.ElkinNeimanCtx(ctx, g, nil, ldd.ENParams{Lambda: eps, Seed: seed}, nil)
		if d.UnclusteredFraction() > eps {
			fmt.Printf("\nconcrete failure at seed %d: EN16 deleted %d of %d vertices (%.1f%% > %.0f%%)\n",
				seed, d.UnclusteredCount(), g.N(), 100*d.UnclusteredFraction(), 100*eps)
			cl, _ := ldd.ChangLiCtx(ctx, g, ldd.Params{Epsilon: eps, Seed: seed})
			fmt.Printf("Chang–Li at the same seed: deleted %d (%.1f%%), %d clusters\n",
				cl.UnclusteredCount(), 100*cl.UnclusteredFraction(), cl.NumClusters)
			break
		}
	}
}
