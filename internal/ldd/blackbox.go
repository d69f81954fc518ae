package ldd

import (
	"context"
	"math"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/xrand"
)

// BlackboxParams configures the Section 1.6 construction of Coiteux-Roy et
// al., which turns any (1/2, g(n)) low-diameter decomposition into an
// (ε, O(g(n)/ε)) one in O((f(n)+g(n))·log(1/ε)/ε) rounds — improving the
// log³(1/ε) factor of Theorem 1.1 to log(1/ε).
type BlackboxParams struct {
	// Epsilon is the target unclustered fraction.
	Epsilon float64
	// NTilde is the known upper bound on n; zero means n.
	NTilde int
	// Seed drives all randomness.
	Seed uint64
	// Scale is forwarded to the inner ChangLi(1/2) runs.
	Scale float64
	// UseElkinNeimanBase swaps the inner whp base (ChangLi at ε = 1/2) for
	// plain Elkin–Neiman — the in-expectation ablation.
	UseElkinNeimanBase bool
}

// Blackbox runs the boost:
//
//  1. run the (1/2, O(log n)) base decomposition on the power graph G^k of
//     the remaining vertices, k = Θ(1/ε); its clusters are > k-hop
//     separated in G;
//  2. each cluster grows a ball in G for ⌊k/2⌋ hops and deletes its
//     thinnest layer (≤ 2/k ≈ O(ε) of the ball); the ball interior is
//     carved out as a final cluster;
//  3. repeat on the unclustered remainder O(log(1/ε)) times; whatever is
//     left at the end (≤ O(εn) in expectation/whp, per the proof sketch)
//     is deleted.
func Blackbox(g *graph.Graph, p BlackboxParams) *Decomposition {
	d, _ := BlackboxCtx(context.Background(), g, p)
	return d
}

// BlackboxCtx is Blackbox with cancellation: the context is checked once
// per repetition, per inner base decomposition, and per carved cluster.
func BlackboxCtx(ctx context.Context, g *graph.Graph, p BlackboxParams) (*Decomposition, error) {
	n := g.N()
	eps := p.Epsilon
	if eps <= 0 {
		eps = 0.5
	}
	if eps > 1 {
		eps = 1
	}
	nTilde := p.NTilde
	if nTilde < n {
		nTilde = n
	}
	k := int(math.Ceil(2 / eps))
	if k < 2 {
		k = 2
	}
	reps := int(math.Ceil(math.Log2(1/eps))) + 1
	if reps < 1 {
		reps = 1
	}

	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	clusterOf := make([]int32, n)
	for i := range clusterOf {
		clusterOf[i] = Unclustered
	}
	nextID := int32(0)
	// Each repetition is three phases: simulating the power graph, the base
	// decomposition on it (whose own phases nest inside "base" in a trace),
	// and the parallel ball-grow-and-carve.
	ph := local.NewPhases(ctx)
	rootRNG := xrand.New(p.Seed)

	gws := graph.AcquireParWorkspace()
	defer graph.ReleaseParWorkspace(gws)
	var aliveList, back, seedSet []int32
	done := ctx.Done()
	for rep := 0; rep < reps; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Materialize the alive-induced subgraph and its k-th power.
		aliveList = aliveList[:0]
		for v := 0; v < n; v++ {
			if alive[v] {
				aliveList = append(aliveList, int32(v))
			}
		}
		if len(aliveList) == 0 {
			break
		}
		ph.Start("power")
		// sub aliases the workspace's Induced buffers; it is consumed by
		// PowerWithWorkspace (which only touches the traversal buffers)
		// before any other Induced call can clobber it. back is copied
		// because the ball gathers below also run on gws.
		sub, backAlias := g.InducedWithWorkspace(gws, aliveList)
		back = append(back[:0], backAlias...)
		power := sub.PowerWithWorkspace(gws, k)
		ph.Charge(k) // simulating one power-graph round costs k rounds

		// Base (1/2, O(log n)) decomposition on the power graph.
		ph.Start("base")
		seed := rootRNG.Split(uint64(rep) + 0xb1ac).Uint64()
		var base *Decomposition
		var err error
		if p.UseElkinNeimanBase {
			base, err = ElkinNeimanCtx(ctx, power, nil, ENParams{Lambda: 0.5, NTilde: nTilde, Seed: seed})
		} else {
			base, err = ChangLiCtx(ctx, power, Params{Epsilon: 0.5, NTilde: nTilde, Seed: seed, Scale: p.Scale})
		}
		if err != nil {
			return nil, err
		}
		ph.Charge(base.Rounds * k) // power-graph rounds simulated in G

		// Ball-grow each base cluster ⌊k/2⌋ hops in G (clusters are > k
		// apart in G, so the grown balls stay disjoint) and carve.
		grow := k / 2
		if grow < 1 {
			grow = 1
		}
		ph.Start("grow-carve")
		carved := 0
		for _, cluster := range base.Clusters() {
			if done != nil {
				select {
				case <-done:
					return nil, ctx.Err()
				default:
				}
			}
			// Map power-graph ids back to g's ids.
			seedSet = seedSet[:0]
			for _, v := range cluster {
				seedSet = append(seedSet, back[v])
			}
			layers := graph.ParBallLayersFromSet(gws, g, seedSet, grow, alive, 1)
			ph.Charge(grow)
			// Find the thinnest layer among 1..grow; carve below it.
			jStar := sparsestLayer(layers, 1, grow, nil)
			if jStar == -1 {
				jStar = len(layers) // component exhausted: keep everything
			}
			id := nextID
			nextID++
			for j := 0; j < jStar && j < len(layers); j++ {
				for _, v := range layers[j] {
					clusterOf[v] = id
					alive[v] = false
					carved++
				}
			}
			if jStar < len(layers) {
				for _, v := range layers[jStar] {
					// Deleted layer: permanently unclustered.
					alive[v] = false
					carved++
				}
			}
		}
		if carved == 0 {
			break // nothing progresses (e.g. base clustered nothing)
		}
	}
	// Whatever is still alive after the repetitions is deleted.
	num := relabel(clusterOf)
	return &Decomposition{ClusterOf: clusterOf, NumClusters: num, Rounds: ph.Total()}, nil
}
