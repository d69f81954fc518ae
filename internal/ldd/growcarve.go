package ldd

import (
	"repro/internal/graph"
)

// CarveOutcome is the result of one Grow-and-Carve execution (Algorithm 1)
// from a single centre, computed against a snapshot of the residual graph.
type CarveOutcome struct {
	// Deleted is the sparsest layer S_{j*}, removed from the graph
	// permanently (these vertices become unclustered).
	Deleted []int32
	// Removed is N^{j*-1}(v): carved out as an isolated cluster.
	Removed []int32
	// JStar is the chosen cut layer index.
	JStar int
}

// GrowCarve implements Algorithm 1 for a centre v on the alive-induced
// subgraph: gather N^b(v), find j* in [a, b] minimizing the cost of S_{j*},
// delete S_{j*}, and remove N^{j*-1}(v). The cost of a layer is its size,
// or its total weight when w is non-nil (the weighted variant deletes the
// lightest layer). Returns nil when v is dead.
//
// When the ball runs out before layer a (the entire residual component of v
// is closer than the cut window), there is nothing to cut: the component is
// removed whole with no deletions, which only helps the analysis.
//
// The layers are gathered on the caller's traversal workspace, expanding
// each BFS level across up to `workers` goroutines; only the carve outcome
// (which outlives the call) is freshly allocated. Outcomes are
// bit-identical for every worker count. Callers that fan centres out pass
// workers = 1 and one workspace per goroutine; concurrent carves against
// the same alive snapshot are then safe.
func GrowCarve(g *graph.Graph, v int, a, b int, alive []bool, w []int64, ws *graph.ParWorkspace, workers int) *CarveOutcome {
	if a < 1 {
		a = 1
	}
	if b < a {
		b = a
	}
	layers := graph.ParBallLayers(ws, g, v, b, alive, workers)
	return carveOutcomeFromLayers(layers, a, b, w)
}

// carveOutcomeFromLayers picks the sparsest cut layer j* in [a, b] and
// materializes the outcome; the layers may alias a workspace, the outcome
// never does.
func carveOutcomeFromLayers(layers [][]int32, a, b int, w []int64) *CarveOutcome {
	if layers == nil {
		return nil
	}
	if len(layers) <= a {
		// Component exhausted before the window: remove everything, delete
		// nothing.
		return &CarveOutcome{Removed: concatLayers(layers, len(layers)), JStar: len(layers)}
	}
	jStar := sparsestLayer(layers, a, b, w)
	return &CarveOutcome{
		JStar:   jStar,
		Deleted: append([]int32(nil), layers[jStar]...),
		Removed: concatLayers(layers, jStar),
	}
}

// concatLayers copies layers[0..k-1] into one freshly allocated list.
func concatLayers(layers [][]int32, k int) []int32 {
	total := 0
	for _, l := range layers[:k] {
		total += len(l)
	}
	out := make([]int32, 0, total)
	for _, l := range layers[:k] {
		out = append(out, l...)
	}
	return out
}

// sparsestLayer returns the layer j in [a, b] (and below len(layers)) of
// least cost — its size, or its weight under w when w is non-nil — with
// ties to the smaller j, or -1 when the window holds no layer.
func sparsestLayer(layers [][]int32, a, b int, w []int64) int {
	jStar, best := -1, int64(-1)
	for j := a; j <= b && j < len(layers); j++ {
		if c := weightOf(layers[j], w); best == -1 || c < best {
			best = c
			jStar = j
		}
	}
	return jStar
}

// weightOf returns the total weight of vs under w, or len(vs) when w is
// nil (one per vertex).
func weightOf(vs []int32, w []int64) int64 {
	if w == nil {
		return int64(len(vs))
	}
	var s int64
	for _, u := range vs {
		s += w[u]
	}
	return s
}

// ApplyCarves merges the outcomes of the carves of one iteration, which
// all computed against the same snapshot, into the live state; nil
// outcomes (unsampled or dead-centre carves) are skipped:
//
//   - a vertex deleted by any execution is deleted (paper: "as long as a
//     vertex is deleted in some execution, it is considered as deleted");
//   - otherwise, a vertex removed by some execution is marked removed.
//
// Overlapping removed balls from the same iteration merge into a single
// cluster later: after an iteration every neighbor of a removed vertex is
// itself removed or deleted (a neighbor of a layer-(j*-1) vertex lies in
// layer <= j*, which was removed or deleted), so the connected components of
// the final removed set are mutually non-adjacent and each is a union of
// overlapping balls from one iteration — these components become the
// clusters. alive, removed and deletedMark are updated in place.
func ApplyCarves(outcomes []*CarveOutcome, alive, removed, deletedMark []bool) {
	for _, oc := range outcomes {
		if oc == nil {
			continue
		}
		for _, v := range oc.Deleted {
			if alive[v] {
				deletedMark[v] = true
			}
		}
	}
	for _, oc := range outcomes {
		if oc == nil {
			continue
		}
		for _, v := range oc.Removed {
			if !alive[v] || deletedMark[v] {
				continue
			}
			alive[v] = false
			removed[v] = true
		}
	}
	for v := range deletedMark {
		if deletedMark[v] && alive[v] {
			alive[v] = false
		}
	}
}
