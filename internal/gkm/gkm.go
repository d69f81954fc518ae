// Package gkm reproduces the Ghaffari–Kuhn–Maus (STOC 2017) baseline for
// (1±ε)-approximate packing and covering ILPs in the LOCAL model — the
// algorithm the reproduced paper (Chang–Li, PODC 2023) improves upon.
//
// The GKM scheme (Section 1.2 of the paper):
//
//  1. pick k = Θ(log(ñ)/ε), the horizon of the sequential
//     ball-growing-and-carving argument;
//  2. compute a (C, D) network decomposition of the power graph G^{2k}
//     (C = O(log n) colors, D = O(log n) weak diameter), so same-color
//     clusters are more than 2k apart in G;
//  3. process color classes sequentially: every cluster of the current
//     color gathers its k-radius neighborhood and simulates the sequential
//     carving process on the residual instance, fixing local solutions as
//     it goes.
//
// Round complexity O(k · C · D) = O(log³(n)/ε), versus the reproduced
// paper's O(log³(1/ε)·log(n)/ε). The experiment harness compares the two
// head-to-head (experiments E6/E7).
//
// The carving step at a centre v on the residual instance: grow balls
// N^1(v) ⊆ N^2(v) ⊆ ... and stop at the first i where the local optimum
// value stabilizes (within a 1±ε factor); fix the ball's local solution and
// remove the ball. The stabilization index exists within k levels because
// the local value otherwise grows geometrically and is bounded by the total
// weight.
package gkm

import (
	"context"
	"math"
	"strconv"

	"repro/internal/graph"
	"repro/internal/ilp"
	"repro/internal/local"
	"repro/internal/netdecomp"
	"repro/internal/solve"
)

// Params configures a GKM run.
type Params struct {
	// Epsilon is the approximation parameter.
	Epsilon float64
	// NTilde is the known upper bound on max(n, total weight); zero = n.
	NTilde int
	// Seed drives the network-decomposition randomness.
	Seed uint64
	// Scale multiplies the horizon k = ⌈ln(ñ)/ε⌉, mirroring ldd.Params.
	Scale float64
	// Solve tunes the local optimizers.
	Solve solve.Options
}

// Result is the outcome of a GKM run.
type Result struct {
	Solution ilp.Solution
	Value    int64
	Rounds   int
	// Exact reports whether every local solve used an exact method.
	Exact bool
	// Colors and Horizon expose the internals for the experiments.
	Colors  int
	Horizon int
}

func (p Params) horizon(nTilde int) int {
	eps := p.Epsilon
	if eps <= 0 || eps > 1 {
		eps = 0.5
	}
	scale := p.Scale
	if scale <= 0 {
		scale = 1
	}
	k := int(math.Ceil(math.Log(float64(nTilde)+3) / eps * scale))
	if k < 2 {
		k = 2
	}
	return k
}

// SolvePacking runs the baseline on a packing instance. The communication
// graph is the instance's primal graph, where every constraint is a clique —
// this guarantees that any constraint touching a removed ball lies entirely
// within the one-larger ball.
func SolvePacking(inst *ilp.Instance, p Params) *Result {
	r, _ := run(context.Background(), inst, p, true)
	return r
}

// SolvePackingCtx is SolvePacking with cancellation: the context is
// checked per color class and per carved cluster.
func SolvePackingCtx(ctx context.Context, inst *ilp.Instance, p Params) (*Result, error) {
	return run(ctx, inst, p, true)
}

// SolveCovering runs the baseline on a covering instance.
func SolveCovering(inst *ilp.Instance, p Params) *Result {
	r, _ := run(context.Background(), inst, p, false)
	return r
}

// SolveCoveringCtx is SolveCovering with cancellation.
func SolveCoveringCtx(ctx context.Context, inst *ilp.Instance, p Params) (*Result, error) {
	return run(ctx, inst, p, false)
}

func run(ctx context.Context, inst *ilp.Instance, p Params, packing bool) (*Result, error) {
	g := inst.Primal()
	n := g.N()
	nTilde := p.NTilde
	if nTilde < n {
		nTilde = n
	}
	k := p.horizon(nTilde)
	ph := local.NewPhases(ctx)
	ws := graph.AcquireParWorkspace()
	defer graph.ReleaseParWorkspace(ws)

	// Step 2: network decomposition of G^{2k}. Building the power graph is
	// free locally; the decomposition itself costs rounds_nd * 2k in G.
	ph.Start("netdecomp")
	power := g.PowerWithWorkspace(ws, 2*k)
	nd, err := netdecomp.DecomposeCtx(ctx, power, netdecomp.Params{NTilde: nTilde, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	ph.Charge(nd.Rounds * 2 * k)

	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	solution := inst.NewSolution()
	exact := true

	// used[j] tracks how much of constraint j's budget (packing) or demand
	// (covering) the fixed partial solution consumes.
	used := make([]float64, inst.NumConstraints())

	clusters := nd.Clusters()
	byColor := nd.ClustersByColor()
	var scratch gkmScratch
	for c, clusterIDs := range byColor {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Same-color clusters are > 2k apart in G; their k-radius carving
		// regions are disjoint, so they run in parallel: one phase.
		ph.Start("color-" + strconv.Itoa(c))
		for _, cid := range clusterIDs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cluster := clusters[cid]
			// The cluster leader gathers N^k(cluster) and simulates the
			// sequential carving for the centres inside the cluster.
			ph.Charge(k * 2)
			for _, centre := range cluster {
				if !alive[centre] {
					continue
				}
				ok := carve(inst, g, int(centre), k, alive, solution, used, packing, p, ws, &scratch)
				if !ok {
					exact = false
				}
			}
		}
	}
	// Covering: isolated leftovers (alive vertices whose constraints are
	// still unmet) cannot remain — every vertex was in some cluster and was
	// processed as a centre, so alive vertices at this point have all their
	// constraints already satisfied or belong to carved regions. Verify and
	// patch defensively (never needed in tests; cheap insurance).
	if !packing {
		patchUncovered(inst, solution, used)
	}
	return &Result{
		Solution: solution,
		Value:    inst.Value(solution),
		Rounds:   ph.Total(),
		Exact:    exact,
		Colors:   nd.NumColors,
		Horizon:  k,
	}, nil
}

// carve runs the sequential ball-growing step at a centre on the residual
// instance, fixes the chosen ball's local solution into solution/used, and
// removes the ball from alive. Returns whether all local solves were exact.
func carve(inst *ilp.Instance, g *graph.Graph, centre, k int, alive []bool,
	solution ilp.Solution, used []float64, packing bool, p Params,
	ws *graph.ParWorkspace, scratch *gkmScratch) bool {

	eps := p.Epsilon
	if eps <= 0 || eps > 1 {
		eps = 0.5
	}
	// layers alias ws and stay valid through the local solves below, which
	// never touch the traversal workspace.
	layers := graph.ParBallLayers(ws, g, centre, k+1, alive, 1)
	if layers == nil {
		return true
	}
	// prefix[i] = vertices within distance i.
	exact := true
	var ball []int32
	values := make([]int64, 0, len(layers)+1)
	sols := make([]ilp.Solution, 0, len(layers)+1)
	for i := 0; i < len(layers); i++ {
		ball = append(ball, layers[i]...)
		sol, val, ex := localSolve(inst, ball, used, solution, packing, p, scratch)
		if !ex {
			exact = false
		}
		values = append(values, val)
		sols = append(sols, sol)
	}
	// Pick the stabilization index i*: the first i with
	//   packing:  value_i >= (1-eps) * value_{i+1}
	//   covering: value_{i+1} <= (1+eps) * value_i
	// Fall back to the last level if none stabilizes within the horizon.
	iStar := len(values) - 1
	for i := 0; i+1 < len(values); i++ {
		if packing {
			if float64(values[i]) >= (1-eps)*float64(values[i+1]) {
				iStar = i
				break
			}
		} else {
			if float64(values[i+1]) <= (1+eps)*float64(values[i]) {
				iStar = i
				break
			}
		}
	}
	// Fix the solution: packing fixes the ball-i* solution and removes ball
	// i*; covering fixes the ball-(i*+1) solution (it covers every residual
	// constraint touching ball i*) and removes ball i*.
	fixIdx := iStar
	if !packing && iStar+1 < len(sols) {
		fixIdx = iStar + 1
	}
	fixed := sols[fixIdx]
	for v, set := range fixed {
		if !set || solution[v] {
			continue
		}
		solution[v] = true
		coeffs := inst.CoeffsOf(v)
		for k, cj := range inst.ConstraintsOf(v) {
			used[cj] += coeffs[k]
		}
	}
	// Remove ball i* (all of it, clustered or not).
	removeUpTo := iStar
	for i := 0; i <= removeUpTo && i < len(layers); i++ {
		for _, v := range layers[i] {
			alive[v] = false
		}
	}
	return exact
}

// gkmScratch holds the dense remaps replacing localSolve's per-call hash
// maps; one per carve suffices (carves run sequentially).
type gkmScratch struct {
	pos  graph.Remap // ball vertex -> local variable index
	seen graph.Remap // constraint-id marks
}

// localSolve optimizes the residual instance restricted to the alive ball:
// a derived ILP over the ball variables with residual budgets/demands.
func localSolve(inst *ilp.Instance, ball []int32, used []float64, fixed ilp.Solution, packing bool, p Params, sc *gkmScratch) (ilp.Solution, int64, bool) {
	// Remap ball variables. Variables already fixed to 1 by an earlier
	// carve (possible for covering, whose fix region exceeds its removal
	// region) are free to reuse: their weight is already paid.
	pos := &sc.pos
	pos.Reset(inst.NumVars())
	weights := make([]int64, len(ball))
	for i, v := range ball {
		pos.Set(v, int32(i))
		weights[i] = inst.Weight(int(v))
		if fixed[v] {
			weights[i] = 0
		}
	}
	kind := ilp.Covering
	if packing {
		kind = ilp.Packing
	}
	b := ilp.NewBuilder(kind, weights)
	seen := &sc.seen
	seen.Reset(inst.NumConstraints())
	for _, v := range ball {
		for _, cj := range inst.ConstraintsOf(int(v)) {
			if seen.Has(cj) {
				continue
			}
			seen.Set(cj, 1)
			c := inst.Constraint(int(cj))
			if packing {
				// Enforce every touching constraint with residual budget;
				// outside-unfixed variables are zero-extended.
				var terms []ilp.Term
				for _, t := range c.Terms {
					if idx, ok := pos.Get(int32(t.Var)); ok {
						terms = append(terms, ilp.Term{Var: int(idx), Coeff: t.Coeff})
					}
				}
				res := c.B - used[cj]
				if res < 0 {
					res = 0
				}
				if len(terms) > 0 {
					b.AddConstraint(terms, res)
				}
			} else {
				// Enforce constraints whose unmet demand can and must be
				// covered inside the ball: all unfixed variables in the ball.
				res := c.B - used[cj]
				if res <= 1e-9 {
					continue
				}
				inside := true
				var terms []ilp.Term
				for _, t := range c.Terms {
					idx, ok := pos.Get(int32(t.Var))
					if !ok {
						inside = false
						break
					}
					terms = append(terms, ilp.Term{Var: int(idx), Coeff: t.Coeff})
				}
				if inside && len(terms) > 0 {
					b.AddConstraint(terms, res)
				}
			}
		}
	}
	localInst, err := b.Build()
	if err != nil {
		// Residual local instance invalid (cannot happen for well-formed
		// inputs); degrade to the empty solution.
		return inst.NewSolution(), 0, false
	}
	allVars := make([]int32, len(ball))
	for i := range allVars {
		allVars[i] = int32(i)
	}
	var localSol ilp.Solution
	var val int64
	exact := true
	if packing {
		var m solve.Method
		localSol, val, m = solve.PackingLocal(localInst, allVars, p.Solve)
		exact = m.Exact()
	} else {
		var m solve.Method
		var cerr error
		localSol, val, m, cerr = solve.CoveringLocal(localInst, allVars, p.Solve)
		if cerr != nil {
			return inst.NewSolution(), 0, false
		}
		exact = m.Exact()
	}
	// Lift back to global indices.
	out := inst.NewSolution()
	for i, set := range localSol {
		if set {
			out[ball[i]] = true
		}
	}
	return out, val, exact
}

// patchUncovered is defensive insurance for covering runs: any constraint
// still unmet is fixed by setting all its variables (always feasible for a
// well-formed instance). It should never trigger; the experiments assert on
// feasibility, not on this path.
func patchUncovered(inst *ilp.Instance, solution ilp.Solution, used []float64) {
	for j := 0; j < inst.NumConstraints(); j++ {
		c := inst.Constraint(j)
		if used[j] >= c.B-1e-9 {
			continue
		}
		for _, t := range c.Terms {
			if !solution[t.Var] {
				solution[t.Var] = true
				coeffs := inst.CoeffsOf(t.Var)
				for k, cj := range inst.ConstraintsOf(t.Var) {
					used[cj] += coeffs[k]
				}
			}
		}
	}
}
