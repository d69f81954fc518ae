// Package ldd implements every decomposition algorithm in the paper:
//
//   - ElkinNeiman: the exponential-shift low-diameter decomposition of
//     Lemma C.1 (Elkin–Neiman 2016, following Miller–Peng–Xu), whose
//     unclustered-count guarantee holds only in expectation; provided in
//     both an oracle (centralized-simulation) form and a genuinely
//     message-passing form on the local.Engine, which produce identical
//     output by construction;
//   - MPX: the Miller–Peng–Xu edge-cutting variant used by Claim C.2;
//   - SparseCover: the Lemma C.2 variant that covers every hyperedge and
//     bounds each vertex's cluster multiplicity by a geometric random
//     variable — the substrate of the covering algorithm;
//   - GrowCarve: the ball-growing-and-carving subroutine (Algorithm 1),
//     and ApplyCarves, the merge of one iteration's carves that packing
//     shares;
//   - ChangLi: the paper's main Theorem 1.1 algorithm (Phases 1–3), whose
//     ε-fraction bound on unclustered vertices holds with high probability;
//   - ChangLiWeighted: the Section 4 weighted variant, which bounds the
//     deleted weight instead. It is ChangLi with vertex weights: one body
//     (changLi) runs both, and the weights enter only the n_v estimate
//     (ballSizes), the sampling rate and the cut layer (sparsestLayer,
//     which Blackbox's carve also uses);
//   - Blackbox: the Section 1.6 boost of Coiteux-Roy et al. that improves
//     the log³(1/ε) round factor to log(1/ε);
//   - RepairDiameter: the weak-to-ideal diameter cleanup step;
//   - RepairDelta / RepairCoverDelta: incremental repair of a cached
//     decomposition or cover onto a mutated graph — classify the net edge
//     delta, certify untouched clusters with single-BFS weak-diameter
//     certificates, re-carve (or patch) only what broke, and fall back
//     (ErrRepairFallback) whenever the repaired result could not match a
//     fresh run's invariants.
//
// Each algorithm has one entry point, its ...Ctx function. ElkinNeimanCtx
// and SparseCoverCtx also take the caller's Workspace (nil means a fresh
// one).
package ldd

import (
	"math"

	"repro/internal/graph"
)

// Unclustered marks a deleted (unclustered) vertex in a Decomposition.
const Unclustered = int32(-1)

// Decomposition is the common result type: a partition of (a subset of) the
// vertices into clusters, with the rest unclustered.
type Decomposition struct {
	// ClusterOf[v] is the cluster id of v, or Unclustered.
	ClusterOf []int32
	// NumClusters is the number of distinct cluster ids (ids are dense).
	NumClusters int
	// Rounds is the LOCAL round complexity charged to this run.
	Rounds int
}

// UnclusteredCount returns the number of deleted vertices.
func (d *Decomposition) UnclusteredCount() int {
	c := 0
	for _, x := range d.ClusterOf {
		if x == Unclustered {
			c++
		}
	}
	return c
}

// UnclusteredFraction returns |D| / n (0 for an empty graph).
func (d *Decomposition) UnclusteredFraction() float64 {
	if len(d.ClusterOf) == 0 {
		return 0
	}
	return float64(d.UnclusteredCount()) / float64(len(d.ClusterOf))
}

// Clusters materializes the clusters as vertex lists indexed by cluster id.
func (d *Decomposition) Clusters() [][]int32 {
	out := make([][]int32, d.NumClusters)
	for v, c := range d.ClusterOf {
		if c >= 0 {
			out[c] = append(out[c], int32(v))
		}
	}
	return out
}

// MaxWeakDiameter returns the maximum weak diameter over clusters, measured
// in g. Empty decompositions yield 0; a cluster disconnected in g yields -1
// (which callers should treat as a failure).
func (d *Decomposition) MaxWeakDiameter(g *graph.Graph) int {
	best := 0
	for _, cluster := range d.Clusters() {
		wd := g.WeakDiameter(cluster)
		if wd == -1 {
			return -1
		}
		if wd > best {
			best = wd
		}
	}
	return best
}

// MaxStrongDiameter returns the maximum strong (induced-subgraph) diameter
// over clusters, or -1 if some cluster's induced subgraph is disconnected.
func (d *Decomposition) MaxStrongDiameter(g *graph.Graph) int {
	best := 0
	for _, cluster := range d.Clusters() {
		sd := g.StrongDiameter(cluster)
		if sd == -1 {
			return -1
		}
		if sd > best {
			best = sd
		}
	}
	return best
}

// ValidateSeparation checks the defining property of a low-diameter
// decomposition (Definition 1.4): distinct clusters are mutually
// non-adjacent. It returns the offending edge if violated.
func (d *Decomposition) ValidateSeparation(g *graph.Graph) (ok bool, badU, badV int) {
	ok = true
	badU, badV = -1, -1
	g.Edges(func(u, v int) {
		cu, cv := d.ClusterOf[u], d.ClusterOf[v]
		if cu >= 0 && cv >= 0 && cu != cv && ok {
			ok = false
			badU, badV = u, v
		}
	})
	return ok, badU, badV
}

// relabel compacts cluster ids to a dense range and returns the count.
// Ids produced by this package are always bounded by a small multiple of n
// (vertex ids or dense counters plus offsets), so a dense remap array beats
// a hash map; the map path remains as a fallback for out-of-range ids.
func relabel(clusterOf []int32) int {
	maxID := int32(-1)
	for _, c := range clusterOf {
		if c > maxID {
			maxID = c
		}
	}
	if maxID < 0 {
		return 0
	}
	if int(maxID) > 4*len(clusterOf)+64 {
		return relabelSparse(clusterOf)
	}
	remap := make([]int32, maxID+1)
	for i := range remap {
		remap[i] = -1
	}
	count := int32(0)
	for i, c := range clusterOf {
		if c < 0 {
			continue
		}
		if remap[c] < 0 {
			remap[c] = count
			count++
		}
		clusterOf[i] = remap[c]
	}
	return int(count)
}

func relabelSparse(clusterOf []int32) int {
	remap := make(map[int32]int32)
	for i, c := range clusterOf {
		if c < 0 {
			continue
		}
		nc, ok := remap[c]
		if !ok {
			nc = int32(len(remap))
			remap[c] = nc
		}
		clusterOf[i] = nc
	}
	return len(remap)
}

// lnTilde returns ln(ñ) for the given upper bound on n, clamped below by 1
// so degenerate tiny inputs keep positive parameters.
func lnTilde(nTilde int) float64 {
	if nTilde < 3 {
		nTilde = 3
	}
	return math.Log(float64(nTilde))
}
