package ldd

import (
	"context"

	"repro/internal/graph"
)

// This file holds the entry points of the weighted extension of the
// Theorem 1.1 decomposition sketched in the "Alternative Approach"
// discussion at the end of Section 4: given vertex weights w'(v), the
// deleted weight is at most an ε fraction of the total weight, with high
// probability. It is ChangLi with weights: the shared body (changLi in
// changli.go) makes its three weight-sensitive choices from them:
//
//   - n_v becomes the ball *weight* (ballSizes), so the sampling rate of a
//     vertex is proportional to its own weight relative to its
//     neighborhood weight, mirroring the W(P_C)/W(S_C) rates of Section 4
//     (the rate in changLi);
//   - Grow-and-Carve deletes the *lightest* layer instead of the smallest
//     (GrowCarve, through sparsestLayer);
//   - the quality metric is deleted weight over total weight
//     (DeletedWeight).

// weightedSampleSalt and weightedPhase3Label keep the weighted run's
// sampling streams and Phase-3 seed apart from ChangLi's on the same seed.
const (
	weightedSampleSalt  = 0x3e1
	weightedPhase3Label = phase3Label + 1
)

// ChangLiWeightedCtx computes a low-diameter decomposition where the
// deleted *weight* is at most ε·Σw with high probability. Weights must be
// nonnegative; nil weights degrade to ChangLiCtx. Zero-weight vertices are
// never sampled as centres but are clustered or deleted like any other.
// Cancellation is as in ChangLiCtx.
func ChangLiWeightedCtx(ctx context.Context, g *graph.Graph, w []int64, p Params) (*Decomposition, error) {
	if w == nil {
		return ChangLiCtx(ctx, g, p)
	}
	return changLi(ctx, g, w, p, weightedSampleSalt, weightedPhase3Label, nil)
}

// DeletedWeight returns the total weight of unclustered vertices — the
// quantity ChangLiWeightedCtx bounds by ε·Σw.
func (dec *Decomposition) DeletedWeight(w []int64) int64 {
	var s int64
	for v, c := range dec.ClusterOf {
		if c == Unclustered && v < len(w) {
			s += w[v]
		}
	}
	return s
}
