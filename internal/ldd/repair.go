package ldd

import (
	"context"
	"math"

	"repro/internal/graph"
)

// SequentialLDD is the classic centralized ball-growing decomposition used
// as the "brute force" step in the proof of Theorem 1.1: repeatedly grow a
// ball from an arbitrary remaining vertex until the next layer would grow
// it by less than a (1+ε) factor, carve the ball as a cluster (strong
// diameter ≤ 2·log_{1+ε} n = O(log n / ε)), and delete the boundary layer
// (≤ ε fraction of the cluster, so ≤ ε|V| in total). Deterministic.
//
// The mask selects the vertex set to decompose; it is not modified.
// Returns the clusters and the deleted vertices.
func SequentialLDD(g *graph.Graph, mask []bool, epsilon float64) (clusters [][]int32, deleted []int32) {
	if epsilon <= 0 {
		epsilon = 0.5
	}
	ws := graph.AcquireParWorkspace()
	defer graph.ReleaseParWorkspace(ws)
	alive := append([]bool(nil), mask...)
	for v := 0; v < g.N(); v++ {
		if !alive[v] {
			continue
		}
		// Grow until the next layer is small relative to the ball.
		layers := graph.ParBallLayers(ws, g, v, g.N(), alive, 1)
		ballSize := 0
		j := 0
		for ; j < len(layers); j++ {
			next := 0
			if j+1 < len(layers) {
				next = len(layers[j+1])
			}
			ballSize += len(layers[j])
			if float64(next) <= epsilon*float64(ballSize) {
				break
			}
		}
		var cluster []int32
		for l := 0; l <= j && l < len(layers); l++ {
			for _, u := range layers[l] {
				cluster = append(cluster, u)
				alive[u] = false
			}
		}
		if j+1 < len(layers) {
			for _, u := range layers[j+1] {
				deleted = append(deleted, u)
				alive[u] = false
			}
		}
		clusters = append(clusters, cluster)
	}
	return clusters, deleted
}

// RepairDiameter implements the diameter cleanup from the proof of Theorem
// 1.1: clusters whose strong diameter exceeds target are re-decomposed
// locally with SequentialLDD(ε/2), replacing the big cluster by the new
// small-diameter clusters and unclustering the (≤ ε/2 fraction) boundary
// vertices. target <= 0 means the ideal bound 2·log_{1+ε/2}(ñ).
func RepairDiameter(g *graph.Graph, d *Decomposition, epsilon float64, target int) *Decomposition {
	out, _ := RepairDiameterCtx(context.Background(), g, d, epsilon, target)
	return out
}

// RepairDiameterCtx is RepairDiameter with cancellation: the context is
// checked once per cluster (each cluster repair is a bounded local
// recomputation).
func RepairDiameterCtx(ctx context.Context, g *graph.Graph, d *Decomposition, epsilon float64, target int) (*Decomposition, error) {
	if epsilon <= 0 {
		epsilon = 0.5
	}
	if target <= 0 {
		target = int(math.Ceil(2 * math.Log(float64(len(d.ClusterOf))+3) / math.Log1p(epsilon/2)))
	}
	out := &Decomposition{
		ClusterOf: append([]int32(nil), d.ClusterOf...),
		Rounds:    d.Rounds, // local recomputation is free in LOCAL
	}
	nextID := int32(0)
	mask := make([]bool, g.N())
	done := ctx.Done()
	for _, cluster := range d.Clusters() {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		needsRepair := false
		if len(cluster) > 1 {
			sd := g.StrongDiameter(cluster)
			needsRepair = sd < 0 || sd > target
		}
		if !needsRepair {
			id := nextID
			nextID++
			for _, v := range cluster {
				out.ClusterOf[v] = id
			}
			continue
		}
		for _, v := range cluster {
			mask[v] = true
		}
		subClusters, dead := SequentialLDD(g, mask, epsilon/2)
		for _, v := range cluster {
			mask[v] = false
		}
		for _, sc := range subClusters {
			id := nextID
			nextID++
			for _, v := range sc {
				out.ClusterOf[v] = id
			}
		}
		for _, v := range dead {
			out.ClusterOf[v] = Unclustered
		}
	}
	out.NumClusters = int(nextID)
	return out, nil
}
