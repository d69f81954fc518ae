package ldd

import (
	"context"
	"math"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/par"
	"repro/internal/xrand"
)

// This file implements the weighted extension of the Theorem 1.1
// decomposition sketched in the "Alternative Approach" discussion at the
// end of Section 4: given vertex weights w'(v), the deleted weight is at
// most an ε fraction of the total weight, with high probability. The
// structure is identical to ChangLi; the three weight-sensitive choices
// are:
//
//   - n_v becomes the ball *weight* (the sampling rate of a vertex is
//     proportional to its own weight relative to its neighborhood weight,
//     mirroring the W(P_C)/W(S_C) rates of Section 4);
//   - Grow-and-Carve deletes the *lightest* layer instead of the smallest;
//   - the quality metric is deleted weight over total weight.

// weightedCarve runs Algorithm 1 with layer weight as the cut criterion,
// gathering layers on the caller's traversal workspace.
func weightedCarve(g *graph.Graph, v int, a, b int, alive []bool, w []int64, ws *graph.ParWorkspace) *CarveOutcome {
	if a < 1 {
		a = 1
	}
	if b < a {
		b = a
	}
	layers := graph.ParBallLayers(ws, g, v, b, alive, 1)
	if layers == nil {
		return nil
	}
	if len(layers) <= a {
		var removed []int32
		for _, l := range layers {
			removed = append(removed, l...)
		}
		return &CarveOutcome{Removed: removed, JStar: len(layers)}
	}
	layerWeight := func(j int) int64 {
		var s int64
		for _, u := range layers[j] {
			s += w[u]
		}
		return s
	}
	jStar, best := -1, int64(-1)
	for j := a; j <= b && j < len(layers); j++ {
		lw := layerWeight(j)
		if best == -1 || lw < best {
			best = lw
			jStar = j
		}
	}
	out := &CarveOutcome{JStar: jStar, Deleted: append([]int32(nil), layers[jStar]...)}
	for j := 0; j < jStar; j++ {
		out.Removed = append(out.Removed, layers[j]...)
	}
	return out
}

// ChangLiWeighted computes a low-diameter decomposition where the deleted
// *weight* is at most ε·Σw with high probability. Weights must be
// nonnegative; nil weights degrade to ChangLi. Zero-weight vertices are
// never sampled as centres but are clustered or deleted like any other.
func ChangLiWeighted(g *graph.Graph, w []int64, p Params) *Decomposition {
	d, _ := ChangLiWeightedCtx(context.Background(), g, w, p)
	return d
}

// ChangLiWeightedCtx is ChangLiWeighted with cancellation (see ChangLiCtx).
func ChangLiWeightedCtx(ctx context.Context, g *graph.Graph, w []int64, p Params) (*Decomposition, error) {
	if w == nil {
		return ChangLiCtx(ctx, g, p)
	}
	n := g.N()
	d := derive(n, p)
	eps := p.Epsilon
	if eps <= 0 {
		eps = 0.5
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	removed := make([]bool, n)
	deletedMark := make([]bool, n)
	var rc local.RoundCounter

	// Ball weights at radius 4tR (component weight shortcut, as in ChangLi).
	rc.StartPhase()
	rc.Charge(min(d.EstimateRadius, n))
	rc.EndPhase()
	ballW, err := ballWeights(ctx, g, alive, d.EstimateRadius, w, p.Workers)
	if err != nil {
		return nil, err
	}

	workers := par.Workers(p.Workers)
	pws := graph.AcquireParWorkspaces(workers)
	defer graph.ReleaseParWorkspaces(pws)
	var centres []int32
	iterations := d.T
	if !p.SkipPhase2 {
		iterations = d.T + 1
	}
	for i := 1; i <= iterations; i++ {
		interval := d.Intervals[i-1]
		isPhase2 := !p.SkipPhase2 && i == d.T+1
		rc.StartPhase()
		centres = centres[:0]
		for v := 0; v < n; v++ {
			if !alive[v] || w[v] <= 0 {
				continue
			}
			// p_{v,i} = 2^i * w(v) * ln ñ / W(N^{4tR}(v)): the per-unit-weight
			// analogue of the ChangLi rate.
			prob := math.Exp2(float64(i)) * float64(w[v]) * d.LnTilde / math.Max(float64(ballW[v]), 1)
			if isPhase2 {
				prob *= math.Log(20 / eps)
			}
			if prob > 1 {
				prob = 1
			}
			if xrand.Stream(p.Seed, v, uint64(0x3e1+i)).Bernoulli(prob) {
				centres = append(centres, int32(v))
			}
		}
		outcomes := make([]*CarveOutcome, len(centres))
		err := par.ForEachCtx(ctx, workers, len(centres), func(wk, j int) {
			outcomes[j] = weightedCarve(g, int(centres[j]), interval[0], interval[1], alive, w, pws[wk])
		})
		if err != nil {
			return nil, err
		}
		for _, oc := range outcomes {
			if oc != nil {
				rc.Charge(interval[1])
			}
		}
		rc.EndPhase()
		applyCarves(outcomes, alive, removed, deletedMark)
	}

	en, err := ElkinNeimanCtx(ctx, g, alive, ENParams{
		Lambda: eps / 10,
		NTilde: d.NTilde,
		Seed:   xrand.New(p.Seed).Split(phase3Label + 1).Uint64(),
	})
	if err != nil {
		return nil, err
	}
	rc.Charge(en.Rounds)

	clusterOf := make([]int32, n)
	for v := range clusterOf {
		clusterOf[v] = Unclustered
	}
	comp, count := g.ComponentsAlive(removed)
	for v := 0; v < n; v++ {
		if removed[v] {
			clusterOf[v] = comp[v]
		}
	}
	for v := 0; v < n; v++ {
		if alive[v] && en.ClusterOf[v] >= 0 {
			clusterOf[v] = int32(count) + en.ClusterOf[v]
		}
	}
	num := relabel(clusterOf)
	return &Decomposition{ClusterOf: clusterOf, NumClusters: num, Rounds: rc.Total()}, nil
}

// ballWeights computes W(N^radius(v)) in the alive-induced subgraph, with
// the whole-component shortcut of ballSizes and the same worker fan-out.
func ballWeights(ctx context.Context, g *graph.Graph, alive []bool, radius int, w []int64, workers int) ([]int64, error) {
	n := g.N()
	out := make([]int64, n)
	cws := graph.AcquireParWorkspace()
	defer graph.ReleaseParWorkspace(cws)
	comp, count := graph.ParComponents(cws, g, alive, 1)
	compW := make([]int64, count)
	compSize := make([]int, count)
	for v := 0; v < n; v++ {
		if comp[v] >= 0 {
			compW[comp[v]] += w[v]
			compSize[comp[v]]++
		}
	}
	workers = par.Workers(workers)
	pws := graph.AcquireParWorkspaces(workers)
	defer graph.ReleaseParWorkspaces(pws)
	err := par.ForEachCtx(ctx, workers, n, func(wk, v int) {
		if alive != nil && !alive[v] {
			return
		}
		c := comp[v]
		if radius >= compSize[c] {
			out[v] = compW[c]
			return
		}
		var s int64
		for _, u := range graph.ParBall(pws[wk], g, v, radius, alive, 1) {
			s += w[u]
		}
		out[v] = s
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeletedWeight returns the total weight of unclustered vertices — the
// quantity ChangLiWeighted bounds by ε·Σw.
func (dec *Decomposition) DeletedWeight(w []int64) int64 {
	var s int64
	for v, c := range dec.ClusterOf {
		if c == Unclustered && v < len(w) {
			s += w[v]
		}
	}
	return s
}
