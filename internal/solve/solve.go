// Package solve implements the local optimizers that run inside the clusters
// produced by the decomposition algorithms. In the LOCAL model, once a
// cluster has gathered its topology, "solve the local problem optimally" is
// a free local computation; on real hardware it is not, so this package
// provides a dispatcher that picks the cheapest exact method available —
//
//   - weighted tree DP when the cluster's constraint graph is a forest,
//   - Hopcroft–Karp/König when it is bipartite with unit weights,
//   - branch-and-bound when the cluster is small,
//
// and falls back to a greedy heuristic otherwise, reporting which path ran
// so experiments can flag non-exact local solves (see DESIGN.md).
//
// A forest is bipartite, so the structured paths 2-colour the cluster's
// conflict edges while they gather them from the instance's per-variable
// rows, and stop at the first odd cycle. Only a bipartite cluster gets its
// conflict graph built as a CSR for tree DP and König; on the dense
// clusters of a random graph both would reject it anyway.
//
// The greedy covering fallback is lazy: it keeps the variables in a heap
// keyed on their last known weight-per-coverage ratio and re-evaluates only
// the top, which makes the same picks in the same order as rescanning every
// variable per pick, in O((|vars| + picks·deg²)·log|vars|) time for
// constraint degree deg. The solvers index their scratch by dense variable
// and constraint ids; they use no hash maps on the greedy paths.
//
// Every local solve is a method of a Scratch: a variable position index, a
// covering membership mask and a greedy row array (packing's residual
// capacities, covering's deficits), each as long as the instance. A caller
// that runs many local solves on one goroutine (the packing and covering
// solvers' workers, the GKM carves) owns one Scratch per worker for the
// length of its request and drops it when the request returns; a one-off
// solve uses a zero Scratch. Nothing is pooled, so no scratch outlives the
// request that made it.
//
// Local-problem semantics follow Section 2 of the paper: for packing, the
// restriction to S sets all outside variables to zero and enforces every
// constraint (Observation 2.1); for covering, only constraints entirely
// inside S are enforced (Observation 2.2).
package solve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/ilp"
	"repro/internal/matching"
	"repro/internal/treedp"
)

// Method identifies which solver produced a local solution.
type Method int

const (
	// MethodTreeDP is exact weighted dynamic programming on a forest.
	MethodTreeDP Method = iota + 1
	// MethodBipartite is exact unweighted König/Hopcroft–Karp.
	MethodBipartite
	// MethodBranchBound is exact branch-and-bound.
	MethodBranchBound
	// MethodGreedy is the non-exact fallback.
	MethodGreedy
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodTreeDP:
		return "treedp"
	case MethodBipartite:
		return "bipartite"
	case MethodBranchBound:
		return "branch-and-bound"
	case MethodGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Exact reports whether the method guarantees an optimal local solution.
func (m Method) Exact() bool { return m != MethodGreedy }

// Options tunes the dispatcher.
type Options struct {
	// MaxExactVars bounds the cluster size passed to branch-and-bound.
	// Zero means the default (30).
	MaxExactVars int
	// DisableStructure skips the tree/bipartite fast paths (used by the
	// ablation benchmarks to time pure branch-and-bound/greedy).
	DisableStructure bool
	// ForceGreedy skips every exact method (greedy-only ablation).
	ForceGreedy bool
}

func (o Options) maxExact() int {
	if o.MaxExactVars <= 0 {
		return 30
	}
	return o.MaxExactVars
}

// ErrInfeasibleLocal is returned when a covering cluster contains an
// unsatisfiable constraint (which implies the global instance is
// infeasible, since the constraint lies fully inside the cluster).
var ErrInfeasibleLocal = errors.New("solve: local covering instance infeasible")

// Scratch is the working memory of local solves, reusable across calls,
// instances and problem kinds by one goroutine at a time. Its zero value
// is ready.
type Scratch struct {
	// at is each cluster variable's position in the deduplicated cluster,
	// plus one, and 0 elsewhere. Every solve clears the entries it set
	// before it returns, so at is all zero between calls.
	at []int32
	// in is covering's cluster membership mask by variable id. Like at, it
	// is all false between calls.
	in []bool
	// row is greedy packing's residual capacity, or greedy covering's
	// residual deficit, by constraint id. It needs no reset: both greedy
	// solvers write each row they touch before reading it.
	row []float64
}

// PackingLocal solves the packing problem restricted to the cluster: it
// returns a full-length solution with ones only on cluster variables,
// feasible for every constraint of inst, maximizing the weight within the
// cluster (exactly when the reported method is exact). Duplicate and
// out-of-range cluster entries are ignored. The branch-and-bound search
// polls ctx at a coarse node stride (the structured fast paths are
// polynomial and run to completion); on cancellation it returns the
// context's error and no solution.
func (s *Scratch) PackingLocal(ctx context.Context, inst *ilp.Instance, cluster []int32, opt Options) (ilp.Solution, int64, Method, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	at := s.positions(inst.NumVars())
	vars := dedup(cluster, at)
	sol, val, m, ok := packingVars(inst, vars, at, opt, ctx.Done(), s)
	for _, v := range vars {
		at[v] = 0
	}
	if !ok {
		return nil, 0, 0, ctxError(ctx)
	}
	return sol, val, m, nil
}

// CoveringLocal solves the covering problem restricted to the cluster: it
// returns a full-length solution with ones only on cluster variables that
// satisfies every constraint fully contained in the cluster, minimizing
// weight (exactly when the method is exact). Cluster entries and
// cancellation are handled as in PackingLocal. A constraint inside the
// cluster that all-ones cannot satisfy returns ErrInfeasibleLocal.
func (s *Scratch) CoveringLocal(ctx context.Context, inst *ilp.Instance, cluster []int32, opt Options) (ilp.Solution, int64, Method, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	at := s.positions(inst.NumVars())
	vars := dedup(cluster, at)
	if cap(s.in) < len(at) {
		s.in = make([]bool, len(at))
	}
	in := s.in[:len(at)]
	for _, v := range vars {
		in[v] = true
	}
	sol, val, m, err := coveringVars(inst, vars, at, in, opt, ctx.Done(), s)
	for _, v := range vars {
		at[v] = 0
		in[v] = false
	}
	if errors.Is(err, context.Canceled) {
		// Branch-and-bound aborted on the done channel; surface the
		// context's own error (DeadlineExceeded vs Canceled).
		return nil, 0, 0, ctxError(ctx)
	}
	return sol, val, m, err
}

// positions returns the all-zero position index for n variables.
func (s *Scratch) positions(n int) []int32 {
	if cap(s.at) < n {
		s.at = make([]int32, n)
	}
	return s.at[:n]
}

// rows returns the per-constraint row array for m constraints.
func (s *Scratch) rows(m int) []float64 {
	if cap(s.row) < m {
		s.row = make([]float64, m)
	}
	return s.row[:m]
}

// ctxError reports why a done channel fired, defaulting to Canceled.
func ctxError(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// packingVars solves packing on the deduplicated cluster vars, indexed in
// at.
func packingVars(inst *ilp.Instance, vars, at []int32, opt Options, done <-chan struct{}, s *Scratch) (ilp.Solution, int64, Method, bool) {
	if len(vars) == 0 {
		return inst.NewSolution(), 0, MethodBranchBound, true
	}
	if !opt.ForceGreedy && !opt.DisableStructure {
		if sol, val, m, ok := packingStructured(inst, vars, at); ok {
			return sol, val, m, true
		}
	}
	if !opt.ForceGreedy && len(vars) <= opt.maxExact() {
		sol, val, ok := packingBB(inst, vars, done, s)
		return sol, val, MethodBranchBound, ok
	}
	sol, val := greedyPacking(inst, vars, s)
	return sol, val, MethodGreedy, true
}

// coveringVars solves covering on the deduplicated cluster vars, indexed
// in at and marked in in. A branch-and-bound search stopped on done
// returns context.Canceled.
func coveringVars(inst *ilp.Instance, vars, at []int32, in []bool, opt Options, done <-chan struct{}, s *Scratch) (ilp.Solution, int64, Method, error) {
	local := inst.LocalConstraints(in)
	// Infeasibility check: all-ones on the cluster, which is the mask in,
	// must satisfy everything.
	if ok, j := inst.FeasibleOn(in, local); !ok {
		return nil, 0, 0, fmt.Errorf("%w: constraint %d", ErrInfeasibleLocal, j)
	}
	if len(local) == 0 {
		return inst.NewSolution(), 0, MethodBranchBound, nil
	}

	if !opt.ForceGreedy && !opt.DisableStructure {
		if sol, val, m, ok := coveringStructured(inst, vars, at, local); ok {
			return sol, val, m, nil
		}
	}
	if !opt.ForceGreedy && len(vars) <= opt.maxExact() {
		sol, val, ok := coveringBB(inst, vars, local, done, s)
		if !ok {
			return nil, 0, 0, context.Canceled
		}
		return sol, val, MethodBranchBound, nil
	}
	sol, val := greedyCovering(inst, vars, local, s)
	return sol, val, MethodGreedy, nil
}

// dedup returns the distinct in-range cluster entries in first-seen order
// and marks each one's position in them, plus one, in at (0 = outside the
// cluster).
func dedup(cluster []int32, at []int32) []int32 {
	vars := make([]int32, 0, len(cluster))
	for _, v := range cluster {
		if v < 0 || int(v) >= len(at) || at[v] != 0 {
			continue
		}
		vars = append(vars, v)
		at[v] = int32(len(vars))
	}
	return vars
}

// --- Structure detection -------------------------------------------------

// conflictGraph builds the cluster's conflict graph on positions in vars:
// an edge for every rank-2 row with both variables in the cluster, emitted
// from its first term's variable (Build sorts the edges). It 2-colours the
// graph by BFS on the way and returns nil at the first odd cycle: a forest
// is bipartite, so then neither tree DP nor König applies, and the CSR is
// never built.
func conflictGraph(inst *ilp.Instance, vars []int32, at []int32) *graph.Graph {
	scratch := make([]int32, 2*len(vars))
	side := scratch[:len(vars)] // 0 = not reached; else 1 or 2
	queue := scratch[len(vars):len(vars)]
	b := graph.NewBuilder(len(vars))
	for s := range vars {
		if side[s] != 0 {
			continue
		}
		side[s] = 1
		queue = append(queue[:0], int32(s))
		for h := 0; h < len(queue); h++ {
			i := queue[h]
			v := int(vars[i])
			for _, cj := range inst.ConstraintsOf(v) {
				c := inst.Constraint(int(cj))
				if len(c.Terms) != 2 {
					continue
				}
				u := c.Terms[0].Var
				if u == v {
					u = c.Terms[1].Var
				}
				j := at[u] - 1
				switch {
				case j < 0:
					continue
				case side[j] == 0:
					side[j] = 3 - side[i]
					queue = append(queue, j)
				case side[j] == side[i]:
					return nil
				}
				if c.Terms[0].Var == v {
					b.AddEdge(int(i), int(j))
				}
			}
		}
	}
	return b.Build()
}

func unitWeights(inst *ilp.Instance, vars []int32) bool {
	for _, v := range vars {
		if inst.Weight(int(v)) != 1 {
			return false
		}
	}
	return true
}

// packingStructured handles the MIS shape exactly when the cluster's
// conflict graph is a forest (any weights) or bipartite (unit weights).
// The method label is reported by whichever path succeeded — re-deriving
// it afterwards would mean rebuilding the cluster graph and running a
// girth check per local solve, which used to dominate the solver's
// allocation profile.
func packingStructured(inst *ilp.Instance, vars []int32, at []int32) (ilp.Solution, int64, Method, bool) {
	if !inst.Rank2Unit() {
		return nil, 0, 0, false
	}
	g := conflictGraph(inst, vars, at)
	if g == nil {
		return nil, 0, 0, false
	}
	w := make([]int64, len(vars))
	for i, v := range vars {
		w[i] = inst.Weight(int(v))
	}
	if set, val, err := treedp.MaxIndependentSet(g, w); err == nil {
		return liftSolution(inst, vars, set), val, MethodTreeDP, true
	}
	if unitWeights(inst, vars) {
		if r := matching.BipartiteAuto(g); r != nil {
			return liftSolution(inst, vars, r.MaxIndependentSet), int64(len(r.MaxIndependentSet)), MethodBipartite, true
		}
	}
	return nil, 0, 0, false
}

// coveringStructured handles the vertex-cover shape exactly under the same
// structural conditions. Only inside-edges matter (Observation 2.2), which
// is exactly what conflictGraph builds; rank-1 constraints (x_v >= 1) force
// their variable and are handled by pre-assignment.
func coveringStructured(inst *ilp.Instance, vars []int32, at []int32, local []int32) (ilp.Solution, int64, Method, bool) {
	if !inst.Rank2Unit() {
		return nil, 0, 0, false
	}
	g := conflictGraph(inst, vars, at)
	if g == nil {
		return nil, 0, 0, false
	}
	forced := make(map[int32]bool)
	for _, cj := range local {
		c := inst.Constraint(int(cj))
		if len(c.Terms) == 1 {
			forced[int32(c.Terms[0].Var)] = true
		}
	}
	w := make([]int64, len(vars))
	for i, v := range vars {
		w[i] = inst.Weight(int(v))
		if forced[v] {
			w[i] = 0 // free to take; we add it regardless below
		}
	}
	var sol ilp.Solution
	var val int64
	var method Method
	if cover, cval, err := treedp.MinVertexCover(g, w); err == nil {
		sol = liftSolution(inst, vars, cover)
		val = cval
		method = MethodTreeDP
	} else if unitWeights(inst, vars) && len(forced) == 0 {
		r := matching.BipartiteAuto(g)
		if r == nil {
			return nil, 0, 0, false
		}
		sol = liftSolution(inst, vars, r.MinVertexCover)
		val = int64(len(r.MinVertexCover))
		method = MethodBipartite
	} else {
		return nil, 0, 0, false
	}
	for v := range forced {
		if !sol[v] {
			sol[v] = true
		}
	}
	// Recompute the true weight including forced vertices.
	val = 0
	for _, v := range vars {
		if sol[v] {
			val += inst.Weight(int(v))
		}
	}
	return sol, val, method, true
}

func liftSolution(inst *ilp.Instance, vars []int32, localIdx []int32) ilp.Solution {
	sol := inst.NewSolution()
	for _, i := range localIdx {
		sol[vars[i]] = true
	}
	return sol
}

// --- Branch and bound: packing -------------------------------------------

// bbCheckMask sets the cancellation polling stride of the branch-and-bound
// searches: one non-blocking channel poll every 1024 explored nodes.
const bbCheckMask = 1023

func packingBB(inst *ilp.Instance, vars []int32, done <-chan struct{}, s *Scratch) (ilp.Solution, int64, bool) {
	// Order variables by weight descending for tighter bounds.
	order := append([]int32(nil), vars...)
	sort.Slice(order, func(i, j int) bool {
		return inst.Weight(int(order[i])) > inst.Weight(int(order[j]))
	})
	suffix := make([]int64, len(order)+1)
	for i := len(order) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + inst.Weight(int(order[i]))
	}
	// Residual capacity per constraint touching the cluster.
	resIdx := map[int32]int{}
	var res []float64
	for _, v := range order {
		for _, cj := range inst.ConstraintsOf(int(v)) {
			if _, ok := resIdx[cj]; !ok {
				resIdx[cj] = len(res)
				res = append(res, inst.Constraint(int(cj)).B)
			}
		}
	}
	// Start from the greedy solution so pruning has a bound immediately.
	bestSol, bestVal := greedyPacking(inst, vars, s)
	cur := inst.NewSolution()
	nodes := 0
	aborted := false
	var rec func(i int, val int64)
	rec = func(i int, val int64) {
		if done != nil {
			if nodes&bbCheckMask == 0 && stopped(done) {
				aborted = true
			}
			nodes++
			if aborted {
				return
			}
		}
		if val > bestVal {
			bestVal = val
			bestSol = cur.Clone()
		}
		if i == len(order) || val+suffix[i] <= bestVal {
			return
		}
		v := order[i]
		// Branch x_v = 1 if capacities allow.
		cons, coeffs := inst.ConstraintsOf(int(v)), inst.CoeffsOf(int(v))
		fits := true
		for k, cj := range cons {
			if coeffs[k] > res[resIdx[cj]]+1e-9 {
				fits = false
				break
			}
		}
		if fits {
			for k, cj := range cons {
				res[resIdx[cj]] -= coeffs[k]
			}
			cur[v] = true
			rec(i+1, val+inst.Weight(int(v)))
			cur[v] = false
			for k, cj := range cons {
				res[resIdx[cj]] += coeffs[k]
			}
		}
		// Branch x_v = 0.
		rec(i+1, val)
	}
	rec(0, 0)
	return bestSol, bestVal, !aborted
}

// stopped polls a done channel without blocking.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// --- Branch and bound: covering ------------------------------------------

func coveringBB(inst *ilp.Instance, vars []int32, local []int32, done <-chan struct{}, s *Scratch) (ilp.Solution, int64, bool) {
	order := append([]int32(nil), vars...)
	sort.Slice(order, func(i, j int) bool {
		return inst.Weight(int(order[i])) < inst.Weight(int(order[j]))
	})
	posOf := make(map[int32]int, len(order))
	for i, v := range order {
		posOf[v] = i
	}
	// deficits[k]: remaining requirement of local constraint k.
	deficit := make([]float64, len(local))
	localIdx := make(map[int32]int, len(local))
	for k, cj := range local {
		deficit[k] = inst.Constraint(int(cj)).B
		localIdx[cj] = k
	}
	// maxCover[k][i]: how much constraint k can still gain from variables at
	// order positions >= i.
	maxCover := make([][]float64, len(local))
	for k, cj := range local {
		row := make([]float64, len(order)+1)
		c := inst.Constraint(int(cj))
		contrib := make([]float64, len(order))
		for _, t := range c.Terms {
			if p, ok := posOf[int32(t.Var)]; ok {
				contrib[p] += t.Coeff
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			row[i] = row[i+1] + contrib[i]
		}
		maxCover[k] = row
	}
	bestSol, bestVal := greedyCovering(inst, vars, local, s)
	cur := inst.NewSolution()
	nodes := 0
	aborted := false
	var rec func(i int, val int64, unmet int)
	rec = func(i int, val int64, unmet int) {
		if done != nil {
			if nodes&bbCheckMask == 0 && stopped(done) {
				aborted = true
			}
			nodes++
			if aborted {
				return
			}
		}
		if val >= bestVal {
			return
		}
		if unmet == 0 {
			bestVal = val
			bestSol = cur.Clone()
			return
		}
		if i == len(order) {
			return
		}
		// Prune: some constraint can no longer be met.
		for k := range local {
			if deficit[k] > 1e-9 && maxCover[k][i] < deficit[k]-1e-9 {
				return
			}
		}
		v := order[i]
		// Branch x_v = 1.
		cons, coeffs := inst.ConstraintsOf(int(v)), inst.CoeffsOf(int(v))
		newlyMet := 0
		for t, cj := range cons {
			k, ok := localIdx[cj]
			if !ok {
				continue
			}
			before := deficit[k]
			deficit[k] -= coeffs[t]
			if before > 1e-9 && deficit[k] <= 1e-9 {
				newlyMet++
			}
		}
		cur[v] = true
		rec(i+1, val+inst.Weight(int(v)), unmet-newlyMet)
		cur[v] = false
		for t, cj := range cons {
			if k, ok := localIdx[cj]; ok {
				deficit[k] += coeffs[t]
			}
		}
		// Branch x_v = 0.
		rec(i+1, val, unmet)
	}
	unmet := 0
	for k := range deficit {
		if deficit[k] > 1e-9 {
			unmet++
		}
	}
	if unmet == 0 {
		return inst.NewSolution(), 0, true
	}
	rec(0, 0, unmet)
	return bestSol, bestVal, !aborted
}

// --- Greedy fallbacks -----------------------------------------------------

// greedyPacking adds cluster variables in weight-descending order whenever
// no constraint would be violated. The result is feasible for the whole
// instance (zero extension, Observation 2.1). It keeps its residual in s.
func greedyPacking(inst *ilp.Instance, vars []int32, s *Scratch) (ilp.Solution, int64) {
	order := append([]int32(nil), vars...)
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(inst.Weight(int(b)), inst.Weight(int(a))); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Residual capacity per constraint id; only the touched entries are
	// read, and each starts at its rhs.
	res := s.rows(inst.NumConstraints())
	for _, v := range order {
		for _, cj := range inst.ConstraintsOf(int(v)) {
			res[cj] = inst.Constraint(int(cj)).B
		}
	}
	sol := inst.NewSolution()
	var val int64
	for _, v := range order {
		cons, coeffs := inst.ConstraintsOf(int(v)), inst.CoeffsOf(int(v))
		fits := true
		for k, cj := range cons {
			if coeffs[k] > res[cj]+1e-9 {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		for k, cj := range cons {
			res[cj] -= coeffs[k]
		}
		sol[v] = true
		val += inst.Weight(int(v))
	}
	return sol, val
}

// greedyCovering is the classic weighted greedy set-multicover heuristic:
// repeatedly take the variable minimizing weight per unit of residual
// deficit covered (the earliest in vars on ties), until every local
// constraint is satisfied. Callers must have verified feasibility (all-ones
// satisfies the local constraints). It keeps its deficits in s.
//
// It runs lazily. A variable's coverage only shrinks as deficits fall, and
// IEEE addition and division are monotone, so its ratio only grows: a
// variable whose recomputed ratio equals its heap key is the exact minimum.
func greedyCovering(inst *ilp.Instance, vars []int32, local []int32, s *Scratch) (ilp.Solution, int64) {
	// deficit[cj] > 0 marks an unmet local constraint; met ones are 0.
	// Only the rows of the cluster variables are read: they start at 0,
	// and the local constraints, which lie among them, at their rhs.
	deficit := s.rows(inst.NumConstraints())
	for _, v := range vars {
		for _, cj := range inst.ConstraintsOf(int(v)) {
			deficit[cj] = 0
		}
	}
	unmet := 0
	for _, cj := range local {
		if b := inst.Constraint(int(cj)).B; b > 0 {
			if deficit[cj] == 0 {
				unmet++
			}
			deficit[cj] = b
		}
	}
	sol := inst.NewSolution()
	var val int64
	ratio := func(v int32) (float64, bool) {
		covered := 0.0
		coeffs := inst.CoeffsOf(int(v))
		for k, cj := range inst.ConstraintsOf(int(v)) {
			if d := deficit[cj]; d > 0 {
				covered += min(coeffs[k], d)
			}
		}
		if covered <= 0 {
			return 0, false
		}
		return float64(inst.Weight(int(v))) / covered, true
	}
	h := make(ratioHeap, 0, len(vars))
	if unmet > 0 {
		for i, v := range vars {
			if r, ok := ratio(v); ok {
				h = append(h, ratioItem{r, int32(i)})
			}
		}
		h.init()
	}
	for unmet > 0 && len(h) > 0 {
		top := h[0]
		v := vars[top.pos]
		r, ok := ratio(v)
		switch {
		case !ok || sol[v]:
			h.pop()
			continue
		case r != top.ratio:
			h[0].ratio = r
			h.down(0)
			continue
		}
		h.pop()
		sol[v] = true
		val += inst.Weight(int(v))
		coeffs := inst.CoeffsOf(int(v))
		for k, cj := range inst.ConstraintsOf(int(v)) {
			if d := deficit[cj]; d > 0 {
				d -= coeffs[k]
				if d <= 1e-9 {
					d = 0
					unmet--
				}
				deficit[cj] = d
			}
		}
	}
	return sol, val
}

// ratioItem is a greedy-covering candidate: its last computed ratio and its
// position in the caller's vars.
type ratioItem struct {
	ratio float64
	pos   int32
}

// ratioHeap is a binary min-heap on (ratio, pos).
type ratioHeap []ratioItem

func (h ratioHeap) less(i, j int) bool {
	if h[i].ratio != h[j].ratio {
		return h[i].ratio < h[j].ratio
	}
	return h[i].pos < h[j].pos
}

func (h ratioHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *ratioHeap) pop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
}

func (h ratioHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		j := l
		if r := l + 1; r < len(h) && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
