package ldd

import (
	"context"
	"math"
	"strconv"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/par"
	"repro/internal/xrand"
)

// sampleSalt+i labels the per-vertex sampling streams of carve iteration
// i, and phase3Label salts the Phase-3 Elkin–Neiman seed so it is
// independent of them. The weighted variant (weighted.go) has its own pair.
const (
	sampleSalt  = 0xca10
	phase3Label = 0x9a5e3
)

// Params configures the Chang–Li Theorem 1.1 decomposition.
type Params struct {
	// Epsilon is the target bound on the unclustered fraction.
	Epsilon float64
	// NTilde is the globally known polynomial upper bound ñ >= n (Section
	// 3 assumes |V| <= ñ <= |V|^c). Zero means n.
	NTilde int
	// Seed drives all randomness.
	Seed uint64
	// Scale multiplies the paper's radius constant R = ⌈200 t ln(ñ)/ε⌉.
	// The paper's constants make R exceed the diameter of any laptop-scale
	// graph (every ball becomes the whole graph); Scale < 1 preserves the
	// structural invariants (equal-length disjoint intervals, the 2^i
	// sampling schedule) at radii where the phase structure is actually
	// exercised. Scale <= 0 means 1 (the paper's constants).
	Scale float64
	// SkipPhase2 replaces Phase 2 by extending Phase 1 to
	// t = ⌈log(20/ε) + log log ñ⌉ iterations, as the covering algorithm
	// (Section 5) requires; also used by the ablation experiments.
	SkipPhase2 bool
	// Workers bounds the worker pool for the embarrassingly parallel steps
	// (per-vertex ball sizes, per-centre carves within one iteration). <= 0
	// means GOMAXPROCS; 1 forces the sequential path. Results are
	// bit-identical for every worker count: tasks are merged in input
	// order and all randomness is derived from (Seed, vertex, label).
	Workers int
}

func (p Params) scale() float64 {
	if p.Scale <= 0 {
		return 1
	}
	return p.Scale
}

// Derived returns the derived parameters (t, R, sampling horizon) for
// inspection by tests and the experiment harness.
type Derived struct {
	T       int // number of Phase-1 iterations
	R       int // interval length
	NTilde  int
	LnTilde float64
	// Intervals[i] = [a, b] for iteration i+1 (paper's I_{i+1}).
	Intervals [][2]int
	// EstimateRadius is the radius 4tR used to compute n_v.
	EstimateRadius int
}

// derive computes t, R and the interval structure of Section 3.1.
func derive(n int, p Params) Derived {
	nTilde := p.NTilde
	if nTilde < n {
		nTilde = n
	}
	eps := p.Epsilon
	if eps <= 0 {
		eps = 0.5
	}
	if eps > 1 {
		eps = 1
	}
	t := int(math.Ceil(math.Log2(20 / eps)))
	if p.SkipPhase2 {
		// Section 5: t = ⌈log ln n + log(1/ε) + 8⌉ kills the need for the
		// Phase-2 shortcut at the cost of more iterations.
		t = int(math.Ceil(math.Log2(math.Log(float64(nTilde)+3)) + math.Log2(1/eps) + 8))
	}
	if t < 1 {
		t = 1
	}
	r := int(math.Ceil(200 * float64(t) * lnTilde(nTilde) / eps * p.scale()))
	if r < 2 {
		r = 2
	}
	d := Derived{T: t, R: r, NTilde: nTilde, LnTilde: lnTilde(nTilde), EstimateRadius: 4 * t * r}
	// I_i = [a_i, b_i] = [(t-i+2)R + 1, (t-i+3)R], i = 1..t+1; intervals are
	// disjoint and a_{i-1} >= b_i as the analysis requires.
	for i := 1; i <= t+1; i++ {
		a := (t-i+2)*r + 1
		b := (t - i + 3) * r
		d.Intervals = append(d.Intervals, [2]int{a, b})
	}
	return d
}

// ballSizes computes n_v = W(N^radius(v)) in the alive-induced subgraph:
// the ball's vertex count, or its total weight under w when w is non-nil.
// When the radius reaches the whole component, the component's count or
// weight is used, which avoids the O(n·m) blowup at paper-scale radii. The
// per-vertex ball queries are independent and fan out across the worker
// pool, each worker running the one-worker kernel on its own traversal
// workspace; cancelling ctx stops the fan-out between tasks.
func ballSizes(ctx context.Context, g *graph.Graph, alive []bool, radius int, w []int64, workers int) ([]int64, error) {
	n := g.N()
	sizes := make([]int64, n)
	workers = par.Workers(workers)
	pw := graph.AcquireParWorkspace()
	defer graph.ReleaseParWorkspace(pw)
	comp, count := graph.ParComponents(pw, g, alive, workers)
	compSize := make([]int, count)
	compWeight := make([]int64, count)
	for v := 0; v < n; v++ {
		if c := comp[v]; c >= 0 {
			compSize[c]++
			if w == nil {
				compWeight[c]++
			} else {
				compWeight[c] += w[v]
			}
		}
	}
	pws := graph.AcquireParWorkspaces(workers)
	defer graph.ReleaseParWorkspaces(pws)
	// Per-vertex costs are heavily skewed (component shortcut vs real
	// ball): chunked grabbing keeps the scheduling overhead off the cheap
	// vertices without giving up the balance.
	err := par.ForEachChunkCtx(ctx, workers, n, 32, func(wk, v int) {
		if alive != nil && !alive[v] {
			return
		}
		// A radius at least the component size always covers the component.
		c := comp[v]
		if radius >= compSize[c] {
			sizes[v] = compWeight[c]
			return
		}
		sizes[v] = weightOf(graph.ParBall(pws[wk], g, v, radius, alive, 1), w)
	})
	if err != nil {
		return nil, err
	}
	return sizes, nil
}

// ChangLiCtx runs the Theorem 1.1 low-diameter decomposition: Phase 1 (t
// iterations of sampled ball-growing-and-carving with doubling rates),
// Phase 2 (one boosted iteration, unless SkipPhase2), and Phase 3
// (Elkin–Neiman with λ = ε/10 on the residual). The bound of ε|V| on
// unclustered vertices holds with probability 1 - 1/poly(n); every cluster
// has weak diameter O(t·R).
//
// The context is checked between phases and between the independent tasks
// of each fan-out (never per-vertex inside a traversal), so a cancelled or
// deadline-expired run returns ctx.Err() promptly, returns its traversal
// workspaces, and leaves no goroutines behind.
func ChangLiCtx(ctx context.Context, g *graph.Graph, p Params) (*Decomposition, error) {
	return changLi(ctx, g, nil, p, sampleSalt, phase3Label, nil)
}

// changLi is the Phase 1–3 body shared by ChangLiCtx and
// ChangLiWeightedCtx. With nil weights every vertex weighs one; otherwise
// the weights enter the three weight-sensitive choices: the n_v estimate
// (ballSizes), the sampling rate below, and the cut layer (GrowCarve).
// salt+i labels iteration i's per-vertex sampling streams and p3Label
// splits the Phase-3 seed, so each entry point keeps its own randomness.
// Phase 3 runs on ws (nil means a fresh workspace).
func changLi(ctx context.Context, g *graph.Graph, w []int64, p Params, salt, p3Label uint64, ws *Workspace) (*Decomposition, error) {
	n := g.N()
	d := derive(n, p)
	eps := p.Epsilon
	if eps <= 0 {
		eps = 0.5
	}
	// The phases mirror the paper's structure: the Θ(log ñ) preparation
	// (n_v estimation), one phase per carve iteration, the Phase-3
	// Elkin–Neiman pass, and assembly. Their timings live only in the trace
	// carried by ctx — the Decomposition itself stays bit-identical whether
	// or not a trace is attached.
	ph := local.NewPhases(ctx)

	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	removed := make([]bool, n)
	deletedMark := make([]bool, n)

	// n_v estimation: one gather of radius 4tR (chargeable as part of the
	// first phase's gathering in a real implementation; we charge it
	// explicitly).
	ph.Start("estimate")
	ph.Charge(min(d.EstimateRadius, n))
	nv, err := ballSizes(ctx, g, alive, d.EstimateRadius, w, p.Workers)
	if err != nil {
		return nil, err
	}

	workers := par.Workers(p.Workers)
	pws := graph.AcquireParWorkspaces(workers)
	defer graph.ReleaseParWorkspaces(pws)
	var centres []int32
	iterations := d.T
	if !p.SkipPhase2 {
		iterations = d.T + 1 // Phase 2 is the (t+1)-st carve with boosted rate
	}
	for i := 1; i <= iterations; i++ {
		interval := d.Intervals[i-1]
		isPhase2 := !p.SkipPhase2 && i == d.T+1
		if isPhase2 {
			ph.Start("phase2-carve")
		} else {
			ph.Start("carve-" + strconv.Itoa(i))
		}
		// The centres of one iteration all carve against the same snapshot
		// of the residual graph, so their executions are independent: sample
		// them first, then fan the carves out and merge in vertex order.
		centres = centres[:0]
		for v := 0; v < n; v++ {
			wv := 1.0
			if w != nil {
				wv = float64(w[v])
			}
			if !alive[v] || wv <= 0 {
				continue
			}
			// Sampling probability p_{v,i} = 2^i w(v) ln(ñ) / n_v, with the
			// extra ln(20/ε) boost in Phase 2 (Section 3.1.3). Weighted, n_v is
			// the ball weight, so the rate is the per-unit-weight analogue of
			// the unweighted one (w(v) = 1 reproduces it exactly). Zero-weight
			// vertices are never sampled.
			prob := math.Exp2(float64(i)) * wv * d.LnTilde / math.Max(float64(nv[v]), 1)
			if isPhase2 {
				prob *= math.Log(20 / eps)
			}
			if prob > 1 {
				prob = 1
			}
			if rng := xrand.Stream(p.Seed, v, salt+uint64(i)); rng.Bernoulli(prob) {
				centres = append(centres, int32(v))
			}
		}
		outcomes := make([]*CarveOutcome, len(centres))
		// Too few centres to fill the pool from the outside: run them in
		// order and parallelize each carve's frontier expansion instead.
		// Either split yields bit-identical outcomes.
		fanOut, carveWorkers := workers, 1
		if workers > 1 && len(centres) < workers {
			fanOut, carveWorkers = 1, workers
		}
		if err := par.ForEachCtx(ctx, fanOut, len(centres), func(wk, j int) {
			outcomes[j] = GrowCarve(g, int(centres[j]), interval[0], interval[1], alive, w, pws[wk], carveWorkers)
		}); err != nil {
			return nil, err
		}
		for _, oc := range outcomes {
			if oc != nil {
				ph.Charge(interval[1])
			}
		}
		ApplyCarves(outcomes, alive, removed, deletedMark)
	}

	// Phase 3: Elkin–Neiman with λ = ε/10 on the residual graph.
	ph.Start("phase3-en")
	en, err := ElkinNeimanCtx(ctx, g, alive, ENParams{
		Lambda:  eps / 10,
		NTilde:  d.NTilde,
		Seed:    xrand.New(p.Seed).Split(p3Label).Uint64(),
		Workers: p.Workers,
	}, ws)
	if err != nil {
		return nil, err
	}
	ph.Charge(en.Rounds)

	// Assemble: carve clusters are the connected components of the removed
	// set (see ApplyCarves for why they are mutually non-adjacent and
	// non-adjacent to the residual); Phase-3 clusters follow with offset
	// ids; everything else is unclustered.
	ph.Start("assemble")
	clusterOf := make([]int32, n)
	for v := range clusterOf {
		clusterOf[v] = Unclustered
	}
	comp, count := graph.ParComponents(pws[0], g, removed, workers)
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
	return &Decomposition{
		ClusterOf:   clusterOf,
		NumClusters: num,
		Rounds:      ph.Total(),
	}, nil
}
