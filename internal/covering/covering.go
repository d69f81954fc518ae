// Package covering implements the paper's Theorem 1.3: a distributed
// (1+ε)-approximation for any covering integer linear program in the LOCAL
// model, running in O((log log n + log(1/ε))³·log(n)/ε) rounds with
// probability 1 - 1/poly(n).
//
// Structure (Section 5):
//
//   - Preparation: Θ(log ñ) independent sparse covers (Lemma C.2) of the
//     communication (primal) graph with λ = ln(21/20); every cluster C
//     computes W(Q^local_C, C) and the value of its (8tR)-radius
//     neighborhood, driving its sampling rate.
//     A cover cluster lies in one connected component and lists its
//     members in id order. So a cluster as large as its component is that
//     component's id-ordered vertex list, and its ball is the same list
//     (the ball search emits its seeds first, in order). Both of its
//     estimates therefore come from one solve, shared by every such
//     cluster of the component; each is still charged its own LOCAL
//     rounds. Any smaller cluster's ball adds at least one vertex (the
//     component is connected and the radius is at least 1), and the greedy
//     fallback breaks ties by list position, so such clusters solve their
//     own cluster and ball as before. Every output is bit-identical.
//   - Phase 1: t = ⌈log log n + log(1/ε) + 8⌉ iterations (no Phase-2
//     shortcut — bad vertices cannot be tolerated for covering);
//     Grow-and-Carve-Covering (Algorithm 7) finds the odd layer pair
//     S_{j*} ∪ S_{j*+1} with the cheapest local covering weight, FIXES the
//     local solution on that pair (permanently assigning those variables
//     1), which satisfies — and therefore deletes — every constraint
//     crossing the removal boundary, then removes the interior.
//   - Phase 2 (final): a sparse cover with λ = ln(1+ε/5) on the residual;
//     every cover cluster solves its local covering instance (Lemma C.3)
//     against the residual demands, the removed components do the same, and
//     the union (bitwise OR) of all local solutions is returned.
package covering

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

// coverLabel salts the per-cluster sampling streams.
const coverLabel = 0xc04e4

// Params configures a Theorem 1.3 run.
type Params struct {
	// Epsilon is the approximation parameter: the output is a feasible
	// solution of weight <= (1+ε)·OPT w.h.p. (given exact local solves).
	Epsilon float64
	// NTilde is the known polynomial upper bound on max(|V|, W(Q*, V));
	// zero means n.
	NTilde int
	// Seed drives all randomness.
	Seed uint64
	// Scale multiplies the paper's radius constant (see ldd.Params.Scale).
	Scale float64
	// PrepRuns overrides the number of preparation covers (paper: 16 ln ñ).
	PrepRuns int
	// Solve tunes the local optimizers.
	Solve solve.Options
	// Workers bounds the worker pool for the independent preparation
	// sparse covers and the Phase-2 per-region local solves. <= 0 means
	// GOMAXPROCS; 1 forces the sequential path. Seeded runs are
	// bit-identical for every worker count: every task's randomness is
	// derived from (Seed, task id) and results merge in task order.
	Workers int
}

// Result is the outcome of a run.
type Result struct {
	Solution ilp.Solution
	Value    int64
	Rounds   int
	// Exact reports whether every local solve used an exact method.
	Exact bool
	// FixedWeight is the weight committed during Phase-1 carving (the
	// ε/2-loss term of Lemma 5.3).
	FixedWeight int64
	// NumRegions is the number of final regions solved in Phase 2.
	NumRegions int
}

type derived struct {
	t         int
	r         int
	nTilde    int
	ln        float64
	intervals [][2]int // length-2R intervals, i = 1..t
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
	ln := math.Log(float64(nTilde) + 3)
	t := int(math.Ceil(math.Log2(ln) + math.Log2(1/eps) + 8))
	if t < 1 {
		t = 1
	}
	r := int(math.Ceil(200 * float64(t) * ln / eps * scale))
	if r < 2 {
		r = 2
	}
	d := derived{t: t, r: r, nTilde: nTilde, ln: ln, estRadius: 8 * t * r}
	// I_i = [(t-i+1)·2R + 1, (t-i+2)·2R], i = 1..t.
	for i := 1; i <= t; i++ {
		a := (t-i+1)*2*r + 1
		b := (t - i + 2) * 2 * r
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

type prepCluster struct {
	members []int32
	wC      int64
	wSC     int64
}

// state carries the mutable run state shared by the carving steps.
type state struct {
	inst     *ilp.Instance
	g        *graph.Graph
	alive    []bool
	removed  []bool
	solution ilp.Solution
	used     []float64 // committed coverage per constraint
	exact    bool
	opt      solve.Options
}

// worker is the per-goroutine scratch for the fan-out steps: a
// decomposition workspace, a traversal workspace, the local solves'
// scratch, and the dense remaps and buffers that replace the per-call hash
// maps of the local-ILP extraction. Read-only state (inst, g, alive
// snapshots, used snapshots) is shared; everything mutable lives here.
// SolveCtx makes its workers when it starts and drops them when it
// returns; only the traversal workspace comes from graph's pool.
type worker struct {
	lws   ldd.Workspace
	scr   solve.Scratch
	pw    *graph.ParWorkspace
	rmap  graph.Remap // region vertex -> local variable index
	cons  graph.Remap // constraint-id marks
	vmark graph.Remap // solution-membership marks (grow-and-carve)
	ball  []int32
	vars  []int32
	wts   []int64
	all   []int32
	terms []ilp.Term
}

func newWorkers(k int) []*worker {
	out := make([]*worker, k)
	for i := range out {
		out[i] = &worker{pw: graph.AcquireParWorkspace()}
	}
	return out
}

func releaseWorkers(wks []*worker) {
	for _, wk := range wks {
		graph.ReleaseParWorkspace(wk.pw)
	}
}

// fix permanently assigns variable v = 1 and updates the residual demands.
func (s *state) fix(v int32) {
	if s.solution[v] {
		return
	}
	s.solution[v] = true
	coeffs := s.inst.CoeffsOf(int(v))
	for k, cj := range s.inst.ConstraintsOf(int(v)) {
		s.used[cj] += coeffs[k]
	}
}

// SolveCtx runs the Theorem 1.3 algorithm on a covering instance. The
// context is checked between the preparation fan-out, each Phase-1 carving
// iteration (and each carve within it), and the Phase-2 per-region
// fan-out, and polled inside the sparse covers and branch-and-bound
// searches; a cancelled run returns ctx.Err() promptly. The run's workers
// live only as long as the call.
func SolveCtx(ctx context.Context, inst *ilp.Instance, p Params) (*Result, error) {
	g := inst.Primal()
	n := g.N()
	d := derive(n, p)
	eps := clampEps(p.Epsilon)
	rootRNG := xrand.New(p.Seed)
	// Phase timings go only into the trace carried by ctx; the Result is
	// bit-identical either way.
	ph := local.NewPhases(ctx)

	st := &state{
		inst:     inst,
		g:        g,
		alive:    make([]bool, n),
		removed:  make([]bool, n),
		solution: inst.NewSolution(),
		used:     make([]float64, inst.NumConstraints()),
		exact:    true,
		opt:      p.Solve,
	}
	for i := range st.alive {
		st.alive[i] = true
	}

	// --- Preparation: sparse covers for weight estimates ------------------
	// The Θ(log ñ) covers are mutually independent (each has its own split
	// of the root seed), and so are the per-cluster weight estimates, so
	// both fan out across the worker pool. Merging in (run, cluster) order
	// keeps the cluster indexing — and hence the Phase-1 sampling streams —
	// bit-identical to the sequential path.
	workers := par.Workers(p.Workers)
	wks := newWorkers(workers)
	defer releaseWorkers(wks)

	ph.Start("preparation")
	lambdaPrep := math.Log(21.0 / 20.0)
	prepSeeds := make([]uint64, d.prepRuns)
	for run := range prepSeeds {
		prepSeeds[run] = rootRNG.Split(uint64(run) + 0xc0e).Uint64()
	}
	// A cover fails only when ctx is cancelled, and ForEachCtx then returns
	// ctx's error.
	covs := make([]*ldd.Cover, d.prepRuns)
	if err := par.ForEachCtx(ctx, workers, d.prepRuns, func(w, run int) {
		covs[run], _ = ldd.SparseCoverCtx(ctx, g, nil, ldd.ENParams{
			Lambda: lambdaPrep,
			NTilde: d.nTilde,
			Seed:   prepSeeds[run],
		}, &wks[w].lws)
	}); err != nil {
		return nil, err
	}
	var members [][]int32
	for _, cov := range covs {
		for _, m := range cov.Clusters {
			if len(m) > 0 {
				members = append(members, m)
			}
		}
	}
	// A cluster as large as its component is that component's id-ordered
	// vertex list, and so is its ball: both estimates come from one solve
	// per component (see the package doc).
	cc := solve.NewComponents(g)
	componentValue := make([]func(verts []int32) (int64, bool, error), workers)
	for w, wk := range wks {
		componentValue[w] = func(verts []int32) (int64, bool, error) {
			return st.localValue(ctx, verts, wk)
		}
	}
	clusters := make([]prepCluster, len(members))
	prepErrs := make([]error, len(members))
	prepExact := make([]bool, len(members))
	if err := par.ForEachCtx(ctx, workers, len(members), func(w, i int) {
		pc := prepCluster{members: members[i]}
		if c := cc.Of(members[i][0]); len(members[i]) == len(cc.Members(c)) {
			pc.wC, prepExact[i], prepErrs[i] = cc.Value(c, componentValue[w])
			pc.wSC = pc.wC
			clusters[i] = pc
			return
		}
		var ex1, ex2 bool
		pc.wC, ex1, prepErrs[i] = st.localValue(ctx, members[i], wks[w])
		if prepErrs[i] != nil {
			return
		}
		sc := graph.ParBallFromSet(wks[w].pw, g, members[i], d.estRadius, nil, 1)
		pc.wSC, ex2, prepErrs[i] = st.localValue(ctx, sc, wks[w])
		prepExact[i] = ex1 && ex2
		clusters[i] = pc
	}); err != nil {
		return nil, err
	}
	for _, cov := range covs {
		ph.Charge(cov.Rounds)
	}
	for i := range clusters {
		if prepErrs[i] != nil {
			return nil, prepErrs[i]
		}
		if !prepExact[i] {
			st.exact = false
		}
		ph.Charge(min(d.estRadius, n))
	}

	// --- Phase 1: t carving iterations -------------------------------------
	// Unlike the decomposition's Phase 1, each carve here fixes variables
	// and updates the residual demands that the next carve's local solve
	// sees, so the iteration is inherently sequential; it runs on worker
	// 0's scratch.
	for i := 1; i <= d.t; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		interval := d.intervals[i-1]
		ph.Start("carve-" + strconv.Itoa(i))
		for ci := range clusters {
			pc := clusters[ci]
			if pc.wSC <= 0 || pc.wC <= 0 {
				continue
			}
			prob := math.Exp2(float64(i)) * float64(pc.wC) / float64(pc.wSC)
			if prob > 1 {
				prob = 1
			}
			if rng := xrand.Stream(p.Seed, ci, uint64(coverLabel+i)); !rng.Bernoulli(prob) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// A cluster whose vertices earlier carves removed gathers
			// nothing and is charged nothing.
			gathered, err := st.growCarveCovering(ctx, pc.members, interval[0], interval[1], wks[0])
			if err != nil {
				return nil, err
			}
			if gathered {
				ph.Charge(interval[1])
			}
		}
	}
	fixedWeight := inst.Value(st.solution)

	// --- Phase 2: sparse cover + per-region local solves --------------------
	// Two phases: the cover is built first, then every region solves in
	// parallel, each gathering through its cover cluster.
	ph.Start("phase2-cover")
	lambdaFinal := math.Log1p(eps / 5)
	cov, err := ldd.SparseCoverCtx(ctx, g, st.alive, ldd.ENParams{
		Lambda: lambdaFinal,
		NTilde: d.nTilde,
		Seed:   rootRNG.Split(0xf17a1).Uint64(),
	}, &wks[0].lws)
	if err != nil {
		return nil, err
	}
	ph.Charge(cov.Rounds)

	// Regions: residual sparse-cover clusters plus removed components. All
	// local solves run against the Phase-1 residual demands and are OR-ed
	// (Lemma C.3); overlap cost is the geometric multiplicity.
	var regions [][]int32
	regions = append(regions, cov.Clusters...)
	comp, count := g.ComponentsAlive(st.removed)
	removedRegions := make([][]int32, count)
	for v := 0; v < n; v++ {
		if st.removed[v] {
			removedRegions[comp[v]] = append(removedRegions[comp[v]], int32(v))
		}
	}
	regions = append(regions, removedRegions...)

	// The per-region local solves all run against the same Phase-1
	// residual snapshot, so they fan out across the pool; the fixes are
	// applied afterwards in region order.
	ph.Start("phase2-solves")
	usedSnapshot := append([]float64(nil), st.used...)
	chosen := make([][]int32, len(regions))
	regionErrs := make([]error, len(regions))
	regionExact := make([]bool, len(regions))
	if err := par.ForEachCtx(ctx, workers, len(regions), func(w, i int) {
		chosen[i], regionExact[i], regionErrs[i] = st.localCoverAgainst(ctx, regions[i], usedSnapshot, wks[w])
	}); err != nil {
		return nil, err
	}
	for i := range regions {
		if regionErrs[i] != nil {
			return nil, regionErrs[i]
		}
		if !regionExact[i] {
			st.exact = false
		}
		ph.Charge(cov.Rounds)
	}
	for _, picks := range chosen {
		for _, v := range picks {
			st.fix(v)
		}
	}

	return &Result{
		Solution:    st.solution,
		Value:       inst.Value(st.solution),
		Rounds:      ph.Total(),
		Exact:       st.exact,
		FixedWeight: fixedWeight,
		NumRegions:  len(regions),
	}, nil
}

// localValue computes W(Q^local_S, S): the optimal covering weight of the
// constraints fully inside S (against the original demands — preparation
// happens before any fixing). Safe for concurrent use across distinct
// workers: it only reads the shared state, solves on wk's scratch, and
// reports exactness to the caller.
func (s *state) localValue(ctx context.Context, members []int32, wk *worker) (int64, bool, error) {
	_, val, m, err := wk.scr.CoveringLocal(ctx, s.inst, members, s.opt)
	if err != nil {
		return 0, false, err
	}
	return val, m.Exact(), nil
}

// growCarveCovering implements Algorithm 7 for a cluster seed set and
// reports whether it gathered a ball: it gathers nothing when every seed
// was already removed. It mutates the run state and therefore always runs
// sequentially, on the caller's scratch.
func (s *state) growCarveCovering(ctx context.Context, seed []int32, a, b int, wk *worker) (bool, error) {
	layers := graph.ParBallLayersFromSet(wk.pw, s.g, seed, b, s.alive, 1)
	if layers == nil {
		return false, nil
	}
	if len(layers) <= a {
		// Component exhausted before the window: remove it whole; its
		// constraints are handled by the removed-region solve in Phase 2.
		for _, l := range layers {
			for _, v := range l {
				s.alive[v] = false
				s.removed[v] = true
			}
		}
		return true, nil
	}
	ball := wk.ball[:0]
	for _, l := range layers {
		ball = append(ball, l...)
	}
	wk.ball = ball
	// Q^local of the gathered ball, against current residual demands.
	sol, exact, err := s.localCoverAgainst(ctx, ball, s.used, wk)
	if err != nil {
		return false, err
	}
	if !exact {
		s.exact = false
	}
	inSol := &wk.vmark
	inSol.Reset(s.g.N())
	for _, v := range sol {
		inSol.Set(v, 1)
	}
	pairWeight := func(j int) int64 {
		var w int64
		for _, idx := range []int{j, j + 1} {
			if idx >= len(layers) {
				continue
			}
			for _, v := range layers[idx] {
				if inSol.Has(v) {
					w += s.inst.Weight(int(v))
				}
			}
		}
		return w
	}
	// Odd j* in [a, b] minimizing the pair weight.
	jStar, best := -1, int64(-1)
	start := a
	if start%2 == 0 {
		start++
	}
	for j := start; j <= b && j < len(layers); j += 2 {
		w := pairWeight(j)
		if best == -1 || w < best {
			best = w
			jStar = j
		}
	}
	if jStar == -1 {
		for _, l := range layers {
			for _, v := range l {
				s.alive[v] = false
				s.removed[v] = true
			}
		}
		return true, nil
	}
	// Fix the local solution on S_{j*} ∪ S_{j*+1}: every constraint crossing
	// the removal boundary lies inside the pair (constraints are cliques in
	// the primal graph) and is satisfied by the fixed assignment.
	for _, idx := range []int{jStar, jStar + 1} {
		if idx >= len(layers) {
			continue
		}
		for _, v := range layers[idx] {
			if inSol.Has(v) {
				s.fix(v)
			}
		}
	}
	// Remove the interior N^{j*}.
	for j := 0; j <= jStar && j < len(layers); j++ {
		for _, v := range layers[j] {
			s.alive[v] = false
			s.removed[v] = true
		}
	}
	return true, nil
}

// localCoverAgainst solves the covering problem restricted to the region:
// constraints with positive residual demand (w.r.t. used) whose variables
// all lie inside region ∪ {already-fixed vertices}; fixed vertices are free
// (weight 0). Returns the chosen vertices (global ids) and whether the
// local solve was exact. Safe for concurrent use across distinct workers:
// shared state is only read, and all scratch lives in wk.
func (s *state) localCoverAgainst(ctx context.Context, region []int32, used []float64, wk *worker) ([]int32, bool, error) {
	inRegion := &wk.rmap
	inRegion.Reset(s.g.N())
	vars := wk.vars[:0]
	for _, v := range region {
		if inRegion.Has(v) {
			continue
		}
		inRegion.Set(v, int32(len(vars)))
		vars = append(vars, v)
	}
	wk.vars = vars
	weights := wk.wts[:0]
	for _, v := range vars {
		w := s.inst.Weight(int(v))
		if s.solution[v] {
			w = 0
		}
		weights = append(weights, w)
	}
	wk.wts = weights
	b := ilp.NewBuilder(ilp.Covering, weights)
	seen := &wk.cons
	seen.Reset(s.inst.NumConstraints())
	for _, v := range vars {
		for _, cj := range s.inst.ConstraintsOf(int(v)) {
			if seen.Has(cj) {
				continue
			}
			seen.Set(cj, 1)
			res := s.inst.Constraint(int(cj)).B - used[cj]
			if res <= 1e-9 {
				continue
			}
			inside := true
			terms := wk.terms[:0]
			for _, t := range s.inst.Constraint(int(cj)).Terms {
				idx, ok := inRegion.Get(int32(t.Var))
				if !ok {
					inside = false
					break
				}
				terms = append(terms, ilp.Term{Var: int(idx), Coeff: t.Coeff})
			}
			wk.terms = terms
			if inside && len(terms) > 0 {
				b.AddConstraint(terms, res)
			}
		}
	}
	localInst, err := b.Build()
	if err != nil {
		return nil, false, err
	}
	all := wk.all[:0]
	for i := range vars {
		all = append(all, int32(i))
	}
	wk.all = all
	sol, _, m, err := wk.scr.CoveringLocal(ctx, localInst, all, s.opt)
	if err != nil {
		return nil, false, err
	}
	var out []int32
	for i, set := range sol {
		if set {
			out = append(out, vars[i])
		}
	}
	return out, m.Exact(), nil
}
