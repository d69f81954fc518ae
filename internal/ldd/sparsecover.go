package ldd

import (
	"cmp"
	"context"
	"math"

	"repro/internal/graph"
	"repro/internal/hypergraph"
)

// Cover is the output of the Lemma C.2 sparse-cover decomposition: a family
// of (possibly overlapping) clusters such that every hyperedge of the input
// hypergraph lies entirely inside at least one cluster, and each vertex's
// cluster multiplicity is dominated by Geometric(e^-lambda) + ñ^-2.
type Cover struct {
	// Clusters[i] lists the member vertices of cluster i (sorted).
	Clusters [][]int32
	// MemberOf[v] lists the cluster ids containing v.
	MemberOf [][]int32
	// Rounds is the LOCAL round complexity charged.
	Rounds int
}

// Multiplicity returns the number of clusters containing v.
func (c *Cover) Multiplicity(v int) int { return len(c.MemberOf[v]) }

// MaxMultiplicity returns the largest multiplicity over vertices.
func (c *Cover) MaxMultiplicity() int {
	m := 0
	for v := range c.MemberOf {
		if len(c.MemberOf[v]) > m {
			m = len(c.MemberOf[v])
		}
	}
	return m
}

// MeanMultiplicity returns the average multiplicity over alive vertices.
func (c *Cover) MeanMultiplicity() float64 {
	total, count := 0, 0
	for v := range c.MemberOf {
		total += len(c.MemberOf[v])
		count++
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// MaxWeakDiameter returns the max weak diameter of the clusters in g.
func (c *Cover) MaxWeakDiameter(g *graph.Graph) int {
	best := 0
	for _, cl := range c.Clusters {
		wd := g.WeakDiameter(cl)
		if wd == -1 {
			return -1
		}
		if wd > best {
			best = wd
		}
	}
	return best
}

// SparseCoverCtx runs the Lemma C.2 variant of the exponential-shift
// decomposition on the alive-induced subgraph of g: no vertex is deleted;
// instead every vertex joins the cluster of every source whose shifted
// value comes within 1 of its best. For any hypergraph h whose hyperedges
// lie inside the alive set, every hyperedge is fully contained in the
// cluster of the source maximizing the best member value (verified by
// VerifyCover). Each cluster has weak diameter at most 8 ln(ñ)/lambda.
//
// It runs on ws as ElkinNeimanCtx does (nil means a fresh workspace); the
// covering preparation runs Θ(log ñ) of these, one workspace per worker.
// The returned Cover is freshly allocated (it does not alias ws).
func SparseCoverCtx(ctx context.Context, g *graph.Graph, alive []bool, p ENParams, ws *Workspace) (*Cover, error) {
	if err := cmp.Or(p.check(), ctx.Err()); err != nil {
		return nil, err
	}
	if ws == nil {
		ws = new(Workspace) // sparseCover keeps its cluster-id map in it
	}
	c, ok := sparseCover(g, alive, p, ws, ctx.Done())
	if !ok {
		return nil, doneErr(ctx)
	}
	return c, nil
}

func sparseCover(g *graph.Graph, alive []bool, p ENParams, ws *Workspace, done <-chan struct{}) (*Cover, bool) {
	n := g.N()
	// keep = n would be exact; the window prune (slack 1) already discards
	// everything that cannot join, so a generous keep bound costs little.
	labels, maxT, ok := searchLabels(g, alive, p, n, 1.0, ws, done)
	if !ok {
		return nil, false
	}
	cover := &Cover{
		MemberOf: make([][]int32, n),
		Rounds:   int(math.Ceil(maxT)),
	}
	// Dense source -> cluster id map (sources are vertex ids).
	if cap(ws.mark) < n {
		ws.mark = make([]int32, n)
	}
	clusterID := ws.mark[:n]
	for i := range clusterID {
		clusterID[i] = -1
	}
	for v := 0; v < n; v++ {
		if alive != nil && !alive[v] {
			continue
		}
		ls := labels[v]
		if len(ls) == 0 {
			continue
		}
		best := ls[0].value
		for _, l := range ls {
			if l.value < best-1 {
				break // sorted descending
			}
			id := clusterID[l.source]
			if id < 0 {
				id = int32(len(cover.Clusters))
				clusterID[l.source] = id
				cover.Clusters = append(cover.Clusters, nil)
			}
			cover.Clusters[id] = append(cover.Clusters[id], int32(v))
			cover.MemberOf[v] = append(cover.MemberOf[v], id)
		}
	}
	return cover, true
}

// VerifyCover checks the Lemma C.2 guarantee that every hyperedge of h is
// fully contained in at least one cluster, returning the first uncovered
// hyperedge id otherwise.
func VerifyCover(h *hypergraph.H, c *Cover) (bool, int) {
	inCluster := make([]int32, h.N()) // scratch: epoch tagging per cluster
	for i := range inCluster {
		inCluster[i] = -1
	}
	for e := 0; e < h.M(); e++ {
		edge := h.Edge(e)
		if len(edge) == 0 {
			continue
		}
		covered := false
		// Only clusters containing the first endpoint can cover the edge.
		for _, cid := range c.MemberOf[edge[0]] {
			all := true
			for _, v := range c.Clusters[cid] {
				inCluster[v] = cid
			}
			for _, u := range edge {
				if inCluster[u] != cid {
					all = false
					break
				}
			}
			if all {
				covered = true
				break
			}
		}
		if !covered {
			return false, e
		}
	}
	return true, -1
}
