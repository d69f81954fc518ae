// Package netdecomp implements a Linial–Saks style randomized network
// decomposition: a partition of the vertices into clusters of weak diameter
// O(log n), colored with O(log n) colors so that no two adjacent clusters
// share a color. This is the substrate of the Ghaffari–Kuhn–Maus (STOC
// 2017) baseline algorithm reproduced in internal/gkm: the paper being
// reproduced (Chang–Li, PODC 2023) improves on exactly this construction.
//
// The construction iterates the Elkin–Neiman exponential-shift
// decomposition: phase c clusters a constant fraction of the remaining
// vertices (mutually non-adjacent clusters, diameter O(log n)) and assigns
// them color c; deleted vertices go to the next phase. After O(log n)
// phases every vertex is clustered with probability 1 - 1/poly(n); any
// stragglers become singleton clusters in fresh colors (each singleton is
// trivially a cluster, at the cost of extra colors — rare).
package netdecomp

import (
	"context"

	"repro/internal/graph"
	"repro/internal/ldd"
	"repro/internal/xrand"
)

// Decomposition is a colored network decomposition.
type Decomposition struct {
	// ClusterOf[v] is a dense cluster id.
	ClusterOf []int32
	// ColorOf[v] is the color of v's cluster, in [0, NumColors).
	ColorOf []int32
	// NumClusters and NumColors are the respective counts.
	NumClusters int
	NumColors   int
	// Rounds is the LOCAL round complexity charged.
	Rounds int
}

// Params configures the decomposition.
type Params struct {
	// Lambda is the per-phase Elkin–Neiman parameter; it controls the
	// cluster diameter bound 8 ln(ñ)/Lambda and the per-phase survival
	// rate e^(-Lambda). Zero means 0.5 (diameter O(log n), half survive);
	// any other value must be finite and > 0.
	Lambda float64
	// NTilde is the known upper bound on n; zero means n.
	NTilde int
	// Seed drives the randomness.
	Seed uint64
	// Workers bounds the worker pool of the per-phase Elkin–Neiman passes
	// (see ldd.ENParams.Workers); <= 0 means GOMAXPROCS. The decomposition
	// is bit-identical for every worker count.
	Workers int
}

// DecomposeCtx computes the colored decomposition of g. The context is
// checked once per phase (each phase is one Elkin–Neiman pass over the
// residual graph, which itself checks the context at a coarse stride).
// Every phase runs on one ldd workspace, held for the whole call.
func DecomposeCtx(ctx context.Context, g *graph.Graph, p Params) (*Decomposition, error) {
	lambda := p.Lambda
	if lambda == 0 {
		lambda = 0.5
	}
	if err := ldd.CheckLambda(lambda); err != nil {
		return nil, err
	}
	n := g.N()
	nTilde := p.NTilde
	if nTilde < n {
		nTilde = n
	}
	d := &Decomposition{
		ClusterOf: make([]int32, n),
		ColorOf:   make([]int32, n),
	}
	for v := range d.ClusterOf {
		d.ClusterOf[v] = -1
		d.ColorOf[v] = -1
	}
	alive := make([]bool, n)
	remaining := 0
	for v := 0; v < n; v++ {
		alive[v] = true
		remaining++
	}
	// O(log n) phases suffice whp; 4*log2(ñ)+8 is a generous cap.
	maxPhases := 8
	for s := nTilde; s > 0; s >>= 1 {
		maxPhases += 4
	}
	rng := xrand.New(p.Seed)
	rounds := 0
	color := int32(0)
	var ws ldd.Workspace
	for phase := 0; phase < maxPhases && remaining > 0; phase++ {
		en, err := ldd.ElkinNeimanCtx(ctx, g, alive, ldd.ENParams{
			Lambda:  lambda,
			NTilde:  nTilde,
			Seed:    rng.Split(uint64(phase) + 0xde0).Uint64(),
			Workers: p.Workers,
		}, &ws)
		if err != nil {
			return nil, err
		}
		rounds += en.Rounds
		clustered := 0
		for v := 0; v < n; v++ {
			if !alive[v] || en.ClusterOf[v] < 0 {
				continue
			}
			d.ClusterOf[v] = int32(d.NumClusters) + en.ClusterOf[v]
			d.ColorOf[v] = color
			alive[v] = false
			clustered++
		}
		if clustered > 0 {
			d.NumClusters += en.NumClusters
			color++
			remaining -= clustered
		}
	}
	// Stragglers: singleton clusters, each in its own fresh color so the
	// same-color non-adjacency invariant cannot break.
	for v := 0; v < n; v++ {
		if alive[v] {
			d.ClusterOf[v] = int32(d.NumClusters)
			d.NumClusters++
			d.ColorOf[v] = color
			color++
		}
	}
	d.NumColors = int(color)
	d.Rounds = rounds
	return d, nil
}

// Validate checks the defining invariants: every vertex clustered, and any
// two adjacent vertices in different clusters have different cluster colors.
func (d *Decomposition) Validate(g *graph.Graph) bool {
	for _, c := range d.ClusterOf {
		if c < 0 {
			return false
		}
	}
	ok := true
	g.Edges(func(u, v int) {
		if d.ClusterOf[u] != d.ClusterOf[v] && d.ColorOf[u] == d.ColorOf[v] {
			ok = false
		}
	})
	return ok
}

// Clusters materializes cluster vertex lists.
func (d *Decomposition) Clusters() [][]int32 {
	out := make([][]int32, d.NumClusters)
	for v, c := range d.ClusterOf {
		out[c] = append(out[c], int32(v))
	}
	return out
}

// ClustersByColor groups cluster ids by color.
func (d *Decomposition) ClustersByColor() [][]int32 {
	colorOfCluster := make([]int32, d.NumClusters)
	for i := range colorOfCluster {
		colorOfCluster[i] = -1
	}
	for v, c := range d.ClusterOf {
		colorOfCluster[c] = d.ColorOf[v]
	}
	out := make([][]int32, d.NumColors)
	for cid, col := range colorOfCluster {
		if col >= 0 {
			out[col] = append(out[col], int32(cid))
		}
	}
	return out
}
