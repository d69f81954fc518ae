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
// subgraph: gather N^b(v), find j* in [a, b] minimizing |S_{j*}|, delete
// S_{j*}, and remove N^{j*-1}(v). Returns nil when v is dead.
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
func GrowCarve(g *graph.Graph, v int, a, b int, alive []bool, ws *graph.ParWorkspace, workers int) *CarveOutcome {
	if a < 1 {
		a = 1
	}
	if b < a {
		b = a
	}
	layers := graph.ParBallLayers(ws, g, v, b, alive, workers)
	return carveOutcomeFromLayers(layers, a, b)
}

// carveOutcomeFromLayers picks the sparsest cut layer j* in [a, b] and
// materializes the outcome; the layers may alias a workspace, the outcome
// never does.
func carveOutcomeFromLayers(layers [][]int32, a, b int) *CarveOutcome {
	if layers == nil {
		return nil
	}
	if len(layers) <= a {
		// Component exhausted before the window: remove everything, delete
		// nothing.
		total := 0
		for _, l := range layers {
			total += len(l)
		}
		removed := make([]int32, 0, total)
		for _, l := range layers {
			removed = append(removed, l...)
		}
		return &CarveOutcome{Removed: removed, JStar: len(layers)}
	}
	jStar, best := -1, -1
	for j := a; j <= b && j < len(layers); j++ {
		size := len(layers[j])
		if best == -1 || size < best {
			best = size
			jStar = j
		}
	}
	out := &CarveOutcome{JStar: jStar, Deleted: append([]int32(nil), layers[jStar]...)}
	interior := 0
	for j := 0; j < jStar; j++ {
		interior += len(layers[j])
	}
	out.Removed = make([]int32, 0, interior)
	for j := 0; j < jStar; j++ {
		out.Removed = append(out.Removed, layers[j]...)
	}
	return out
}

// applyCarves merges the outcomes of the centres of one iteration, which
// all computed against the same snapshot, into the live state:
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
// clusters (see carveClusters). alive, removed are updated in place.
// Returns the number of newly deleted vertices.
func applyCarves(outcomes []*CarveOutcome, alive, removed, deletedMark []bool) (deleted int) {
	for _, oc := range outcomes {
		if oc == nil {
			continue
		}
		for _, v := range oc.Deleted {
			if alive[v] && !deletedMark[v] {
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
			deleted++
		}
	}
	return deleted
}
