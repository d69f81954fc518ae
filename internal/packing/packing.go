// Package packing implements the paper's Theorem 1.2: a distributed
// (1-ε)-approximation for any packing integer linear program in the LOCAL
// model, running in O(log³(1/ε)·log(n)/ε) rounds with probability
// 1 - 1/poly(n).
//
// Structure (Section 4):
//
//   - Preparation: Θ(log ñ) independent Elkin–Neiman decompositions of the
//     communication (primal) graph. Every resulting cluster C computes the
//     local packing value W(P^local_C, C) and the value of its (8tR)-radius
//     neighborhood S_C; the ratio drives its sampling rate — this simulates
//     sampling from the unknown optimal solution (challenge (C2)).
//     At the paper's radius S_C is nearly always C's whole connected
//     component, so the same component would be solved once per cluster.
//     Clusters whose S_C is exactly a component share one solve of it
//     instead. The result is bit-identical: the packing value depends only
//     on the vertex set (tree DP, König and branch-and-bound return the
//     optimum, and greedy packing orders by weight, then id), and each
//     cluster is still charged its own LOCAL rounds. Covering shares
//     less: greedy covering breaks ties by position in the vertex list, so
//     its value depends on S_C's BFS order, and only a cluster that is a
//     whole component (whose ball is then its own id-ordered list) reads a
//     shared solve (see the covering package doc).
//   - Phase 1: t = ⌈log(20/ε)⌉ iterations; clusters sample themselves with
//     probability 2^i·W_C/W_SC and run Grow-and-Carve-Packing (Algorithm
//     4): delete the middle layer of the triple with the smallest
//     local-solution weight, carve the interior. The carves of one
//     iteration merge by ldd's rule (ldd.ApplyCarves: a vertex deleted by
//     any carve is deleted).
//   - Phase 2: one boosted iteration with rate multiplied by ln(20/ε).
//   - Phase 3: Elkin–Neiman with λ = ε/10 on the residual; then every final
//     component solves its local packing problem exactly and the union is
//     returned (feasible by Observation 2.1; deleted variables are 0).
package packing

import (
	"context"
	"math"
	"strconv"

	"repro/internal/graph"
	"repro/internal/ilp"
	"repro/internal/ldd"
	"repro/internal/local"
	"repro/internal/par"
	"repro/internal/solve"
	"repro/internal/xrand"
)

// packLabel salts the per-cluster sampling streams.
const packLabel = 0x9ac0

// Params configures a Theorem 1.2 run.
type Params struct {
	// Epsilon is the approximation parameter: the output is a feasible
	// solution of value >= (1-ε)·OPT w.h.p. (given exact local solves).
	Epsilon float64
	// NTilde is the known polynomial upper bound on max(|V|, W(P*, V));
	// zero means n.
	NTilde int
	// Seed drives all randomness.
	Seed uint64
	// Scale multiplies the paper's radius constant (see ldd.Params.Scale).
	Scale float64
	// PrepRuns overrides the number of preparation decompositions
	// (paper: 16 ln ñ). Zero means the paper's value. The experiment
	// harness uses small values to keep sweeps fast; tests use both.
	PrepRuns int
	// Solve tunes the local optimizers.
	Solve solve.Options
	// Workers bounds the worker pool for the independent preparation
	// decompositions, the per-iteration cluster carves, and the final
	// per-region local solves. <= 0 means GOMAXPROCS; 1 forces the
	// sequential path. Seeded runs are bit-identical for every worker
	// count (deterministic per-task randomness, in-order merges).
	Workers int
}

// Result is the outcome of a run.
type Result struct {
	Solution ilp.Solution
	Value    int64
	Rounds   int
	// Exact reports whether every local solve used an exact method; when
	// false the (1-ε) guarantee is not certified (see DESIGN.md).
	Exact bool
	// Deleted is the number of deleted (zero-forced) variables.
	Deleted int
	// NumComponents is the number of final isolated components solved.
	NumComponents int
}

type derived struct {
	t      int
	r      int // R' = R+1 in the paper's notation; interval unit is 3R'
	nTilde int
	ln     float64
	// intervals[i] = [a, b] for iteration i+1, length 3R', a ≡ 1 (mod 3).
	intervals [][2]int
	prepRuns  int
	estRadius int
}

func derive(n int, p Params) derived {
	nTilde := p.NTilde
	if nTilde < n {
		nTilde = n
	}
	eps := clampEps(p.Epsilon)
	scale := p.Scale
	if scale <= 0 {
		scale = 1
	}
	t := int(math.Ceil(math.Log2(20 / eps)))
	if t < 1 {
		t = 1
	}
	ln := math.Log(float64(nTilde) + 3)
	r := int(math.Ceil(200*float64(t)*ln/eps*scale)) + 1 // R' = R+1
	if r < 2 {
		r = 2
	}
	d := derived{t: t, r: r, nTilde: nTilde, ln: ln, estRadius: 8 * t * r}
	// I_i = [(t-i+2)·3R' + 1, (t-i+3)·3R'], i = 1..t+1.
	for i := 1; i <= t+1; i++ {
		a := (t-i+2)*3*r + 1
		b := (t - i + 3) * 3 * r
		d.intervals = append(d.intervals, [2]int{a, b})
	}
	d.prepRuns = p.PrepRuns
	if d.prepRuns <= 0 {
		d.prepRuns = int(math.Ceil(16 * ln))
	}
	return d
}

func clampEps(eps float64) float64 {
	if eps <= 0 || eps > 1 {
		return 0.5
	}
	return eps
}

// prepCluster is one cluster from the preparation decompositions with its
// weight estimates.
type prepCluster struct {
	members []int32
	wC      int64 // W(P^local_C, C)
	wSC     int64 // W(P^local_SC, S_C)
}

// Solve runs the Theorem 1.2 algorithm on a packing instance.
func Solve(inst *ilp.Instance, p Params) *Result {
	r, _ := SolveCtx(context.Background(), inst, p)
	return r
}

// SolveCtx is Solve with cancellation: the context is checked between the
// preparation fan-out, each Phase-1/2 carving iteration, and the final
// per-region fan-out; a cancelled run returns ctx.Err() promptly and
// releases its pooled workspaces.
func SolveCtx(ctx context.Context, inst *ilp.Instance, p Params) (*Result, error) {
	g := inst.Primal()
	n := g.N()
	d := derive(n, p)
	eps := clampEps(p.Epsilon)
	rootRNG := xrand.New(p.Seed)
	// Phase timings go only into the trace carried by ctx; the Result is
	// bit-identical either way.
	ph := local.NewPhases(ctx)
	exact := true

	// --- Preparation -----------------------------------------------------
	// The Θ(log ñ) decompositions are independent (per-run seed splits),
	// and so are the per-cluster weight estimates; both fan out across the
	// worker pool and merge in (run, cluster) order so the Phase-1/2
	// sampling streams stay bit-identical to the sequential path.
	workers := par.Workers(p.Workers)
	wss := ldd.AcquireWorkspaces(workers)
	defer ldd.ReleaseWorkspaces(wss)
	pws := graph.AcquireParWorkspaces(workers)
	defer graph.ReleaseParWorkspaces(pws)
	// Every local packing solve runs on its worker's solve scratch, which
	// lives only as long as this request.
	scr := make([]solve.Scratch, workers)

	ph.Start("preparation")
	prepSeeds := make([]uint64, d.prepRuns)
	for run := range prepSeeds {
		prepSeeds[run] = rootRNG.Split(uint64(run) + 0x9e9).Uint64()
	}
	ens := make([]*ldd.Decomposition, d.prepRuns)
	if err := par.ForEachCtx(ctx, workers, d.prepRuns, func(w, run int) {
		ens[run] = ldd.ElkinNeimanWS(g, nil, ldd.ENParams{
			Lambda: 0.5,
			NTilde: d.nTilde,
			Seed:   prepSeeds[run],
		}, wss[w])
	}); err != nil {
		return nil, err
	}
	// Clusters whose ball S_C is exactly their connected component share
	// one solve of it (see the package doc). The decompositions ran on the
	// whole graph, so every cluster lies in its source's component, and
	// when the estimate radius reaches that component's size the ball is
	// the whole component: it is not searched.
	// A component's shared solve runs on the worker that reaches it first,
	// so each worker has its own value function over its own scratch.
	cc := solve.NewComponents(g)
	componentValue := make([]func(verts []int32) (int64, bool, error), workers)
	for w := range componentValue {
		s := &scr[w]
		componentValue[w] = func(verts []int32) (int64, bool, error) {
			_, wt, ex := solveLocal(inst, verts, p.Solve, s)
			return wt, ex, nil
		}
	}
	var members [][]int32
	for _, en := range ens {
		for _, m := range en.Clusters() {
			if len(m) > 0 {
				members = append(members, m)
			}
		}
	}
	clusters := make([]prepCluster, len(members))
	prepExact := make([]bool, len(members))
	if err := par.ForEachCtx(ctx, workers, len(members), func(w, i int) {
		pc := prepCluster{members: members[i]}
		var ex1, ex2 bool
		_, pc.wC, ex1 = solveLocal(inst, members[i], p.Solve, &scr[w])
		c := cc.Of(members[i][0])
		whole := d.estRadius >= len(cc.Members(c))
		if !whole {
			sc := graph.ParBallFromSet(pws[w], g, members[i], d.estRadius, nil, 1)
			if whole = cc.IsComponent(sc); !whole {
				_, pc.wSC, ex2 = solveLocal(inst, sc, p.Solve, &scr[w])
			}
		}
		if whole {
			pc.wSC, ex2, _ = cc.Value(c, componentValue[w])
		}
		prepExact[i] = ex1 && ex2
		clusters[i] = pc
	}); err != nil {
		return nil, err
	}
	for _, en := range ens {
		ph.Charge(en.Rounds)
	}
	for i := range clusters {
		exact = exact && prepExact[i]
		ph.Charge(min(d.estRadius, n))
	}

	// --- Phases 1 and 2 ---------------------------------------------------
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	removed := make([]bool, n)
	deletedMark := make([]bool, n)

	var sampled []int32
	for i := 1; i <= d.t+1; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		interval := d.intervals[i-1]
		isPhase2 := i == d.t+1
		if isPhase2 {
			ph.Start("phase2-carve")
		} else {
			ph.Start("carve-" + strconv.Itoa(i))
		}
		// All carves of one iteration run against the same alive snapshot,
		// so they are independent: sample the clusters first, then fan the
		// carves out and merge in cluster order.
		sampled = sampled[:0]
		for ci := range clusters {
			pc := clusters[ci]
			if pc.wSC <= 0 || pc.wC <= 0 {
				continue
			}
			prob := math.Exp2(float64(i)) * float64(pc.wC) / float64(pc.wSC)
			if isPhase2 {
				prob *= math.Log(20 / eps)
			}
			if prob > 1 {
				prob = 1
			}
			if rng := xrand.Stream(p.Seed, ci, uint64(packLabel+i)); rng.Bernoulli(prob) {
				sampled = append(sampled, int32(ci))
			}
		}
		outcomes := make([]*ldd.CarveOutcome, len(sampled))
		carveExact := make([]bool, len(sampled))
		if err := par.ForEachCtx(ctx, workers, len(sampled), func(w, j int) {
			pc := clusters[sampled[j]]
			outcomes[j], carveExact[j] = growCarvePacking(inst, g, pc.members,
				interval[0], interval[1], alive, p.Solve, pws[w], &scr[w])
		}); err != nil {
			return nil, err
		}
		for j := range sampled {
			exact = exact && carveExact[j]
			if outcomes[j] != nil {
				ph.Charge(interval[1])
			}
		}
		ldd.ApplyCarves(outcomes, alive, removed, deletedMark)
	}

	// --- Phase 3 -----------------------------------------------------------
	ph.Start("phase3-en")
	en, err := ldd.ElkinNeimanWSCtx(ctx, g, alive, ldd.ENParams{
		Lambda: eps / 10,
		NTilde: d.nTilde,
		Seed:   rootRNG.Split(0x3a5e).Uint64(),
	}, wss[0])
	if err != nil {
		return nil, err
	}
	ph.Charge(en.Rounds)

	// --- Final local solves -------------------------------------------------
	// Regions: connected components of the carve-removed set, plus Phase-3
	// clusters. All are mutually non-adjacent; deleted vertices are 0. The
	// per-region solves are independent (each reads only the instance) and
	// fan out across the pool; the solutions are OR-ed in region order.
	ph.Start("local-solves")
	solution := inst.NewSolution()
	comps := 0
	comp, count := g.ComponentsAlive(removed)
	regions := make([][]int32, count)
	for v := 0; v < n; v++ {
		if removed[v] {
			regions[comp[v]] = append(regions[comp[v]], int32(v))
		}
	}
	numRemoved := len(regions)
	regions = append(regions, en.Clusters()...)
	sols := make([]ilp.Solution, len(regions))
	solExact := make([]bool, len(regions))
	if err := par.ForEachCtx(ctx, workers, len(regions), func(w, i int) {
		if len(regions[i]) == 0 {
			return
		}
		sols[i], _, solExact[i] = solveLocal(inst, regions[i], p.Solve, &scr[w])
	}); err != nil {
		return nil, err
	}
	for i, r := range regions {
		if i < numRemoved {
			ph.Charge(d.intervals[0][1]) // local gather bounded by the carve radius
		} else {
			ph.Charge(en.Rounds)
		}
		if len(r) == 0 {
			continue
		}
		comps++
		exact = exact && solExact[i]
		for v, set := range sols[i] {
			if set {
				solution[v] = true
			}
		}
	}

	deleted := 0
	for v := 0; v < n; v++ {
		if !removed[v] && (en.ClusterOf[v] == ldd.Unclustered) {
			deleted++
		}
	}
	return &Result{
		Solution:      solution,
		Value:         inst.Value(solution),
		Rounds:        ph.Total(),
		Exact:         exact,
		Deleted:       deleted,
		NumComponents: comps,
	}, nil
}

// solveLocal runs solve's PackingLocal on a worker's scratch.
func solveLocal(inst *ilp.Instance, members []int32, opt solve.Options, s *solve.Scratch) (ilp.Solution, int64, bool) {
	sol, val, m := s.PackingLocal(inst, members, opt)
	return sol, val, m.Exact()
}

// growCarvePacking implements Algorithm 4 for a cluster seed set: gather
// layers to radius b-1, compute the local packing solution of the ball,
// pick j* ≡ a (mod 3) in [a, b-1] minimizing the solution weight on the
// triple S_{j*} ∪ S_{j*+1} ∪ S_{j*+2}, delete S_{j*+1}, remove N^{j*}. In
// the returned outcome the cut layer JStar is j*+1, the deleted one.
// The gather runs on the caller's workspace and the local solve on its
// scratch; concurrent calls against the same alive snapshot are safe when
// each uses its own.
func growCarvePacking(inst *ilp.Instance, g *graph.Graph, seed []int32, a, b int,
	alive []bool, opt solve.Options, ws *graph.ParWorkspace, s *solve.Scratch) (*ldd.CarveOutcome, bool) {

	layers := graph.ParBallLayersFromSet(ws, g, seed, b-1, alive, 1)
	if layers == nil {
		return nil, true
	}
	if len(layers) <= a {
		return wholeBall(layers), true
	}
	total := 0
	for _, l := range layers {
		total += len(l)
	}
	ball := make([]int32, 0, total)
	for _, l := range layers {
		ball = append(ball, l...)
	}
	sol, _, ex := solveLocal(inst, ball, opt, s)
	layerWeight := func(j int) int64 {
		if j >= len(layers) {
			return 0
		}
		var w int64
		for _, v := range layers[j] {
			if sol[v] {
				w += inst.Weight(int(v))
			}
		}
		return w
	}
	jStar, best := -1, int64(-1)
	for j := a; j+2 <= b && j < len(layers); j += 3 {
		w := layerWeight(j) + layerWeight(j+1) + layerWeight(j+2)
		if best == -1 || w < best {
			best = w
			jStar = j
		}
	}
	if jStar == -1 {
		// Window collapsed (ball barely exceeds a): remove up to the end.
		return wholeBall(layers), ex
	}
	oc := &ldd.CarveOutcome{JStar: jStar + 1}
	for j := 0; j <= jStar && j < len(layers); j++ {
		oc.Removed = append(oc.Removed, layers[j]...)
	}
	if jStar+1 < len(layers) {
		oc.Deleted = append(oc.Deleted, layers[jStar+1]...)
	}
	return oc, ex
}

// wholeBall removes every gathered layer and deletes nothing.
func wholeBall(layers [][]int32) *ldd.CarveOutcome {
	var rem []int32
	for _, l := range layers {
		rem = append(rem, l...)
	}
	return &ldd.CarveOutcome{Removed: rem, JStar: len(layers)}
}
