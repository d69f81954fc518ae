package solve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ilp"
	"repro/internal/matching"
	"repro/internal/treedp"
	"repro/internal/xrand"
)

// misILP builds the MIS packing instance for a graph with given weights.
func misILP(t testing.TB, g *graph.Graph, w []int64) *ilp.Instance {
	t.Helper()
	if w == nil {
		w = make([]int64, g.N())
		for i := range w {
			w[i] = 1
		}
	}
	b := ilp.NewBuilder(ilp.Packing, w)
	g.Edges(func(u, v int) {
		b.AddConstraint([]ilp.Term{{Var: u, Coeff: 1}, {Var: v, Coeff: 1}}, 1)
	})
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// vcILP builds the vertex-cover covering instance.
func vcILP(t testing.TB, g *graph.Graph, w []int64) *ilp.Instance {
	t.Helper()
	if w == nil {
		w = make([]int64, g.N())
		for i := range w {
			w[i] = 1
		}
	}
	b := ilp.NewBuilder(ilp.Covering, w)
	g.Edges(func(u, v int) {
		b.AddConstraint([]ilp.Term{{Var: u, Coeff: 1}, {Var: v, Coeff: 1}}, 1)
	})
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// mdsILP builds the dominating-set covering instance.
func mdsILP(t testing.TB, g *graph.Graph) *ilp.Instance {
	t.Helper()
	w := make([]int64, g.N())
	for i := range w {
		w[i] = 1
	}
	b := ilp.NewBuilder(ilp.Covering, w)
	for v := 0; v < g.N(); v++ {
		terms := []ilp.Term{{Var: v, Coeff: 1}}
		for _, u := range g.Neighbors(v) {
			terms = append(terms, ilp.Term{Var: int(u), Coeff: 1})
		}
		b.AddConstraint(terms, 1)
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func allVars(n int) []int32 {
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(i)
	}
	return vs
}

// brutePackingLocal enumerates all subsets of the cluster.
func brutePackingLocal(inst *ilp.Instance, cluster []int32) int64 {
	var best int64
	n := len(cluster)
	for mask := 0; mask < 1<<n; mask++ {
		sol := inst.NewSolution()
		var val int64
		for i, v := range cluster {
			if mask&(1<<i) != 0 {
				sol[v] = true
				val += inst.Weight(int(v))
			}
		}
		if ok, _ := inst.Feasible(sol); ok && val > best {
			best = val
		}
	}
	return best
}

func bruteCoveringLocal(inst *ilp.Instance, cluster []int32) int64 {
	in := make([]bool, inst.NumVars())
	for _, v := range cluster {
		in[v] = true
	}
	local := inst.LocalConstraints(in)
	best := int64(1) << 60
	n := len(cluster)
	for mask := 0; mask < 1<<n; mask++ {
		sol := inst.NewSolution()
		var val int64
		for i, v := range cluster {
			if mask&(1<<i) != 0 {
				sol[v] = true
				val += inst.Weight(int(v))
			}
		}
		if ok, _ := inst.FeasibleOn(sol, local); ok && val < best {
			best = val
		}
	}
	return best
}

func TestPackingTreePath(t *testing.T) {
	g := gen.Path(9)
	inst := misILP(t, g, nil)
	sol, val, m := PackingLocal(inst, allVars(9), Options{})
	if m != MethodTreeDP {
		t.Fatalf("method = %v, want treedp", m)
	}
	if val != 5 {
		t.Fatalf("P9 MIS = %d", val)
	}
	if ok, _ := inst.Feasible(sol); !ok {
		t.Fatal("infeasible")
	}
}

func TestPackingBipartiteCycle(t *testing.T) {
	g := gen.Cycle(12)
	inst := misILP(t, g, nil)
	_, val, m := PackingLocal(inst, allVars(12), Options{})
	if m != MethodBipartite {
		t.Fatalf("method = %v, want bipartite", m)
	}
	if val != 6 {
		t.Fatalf("C12 MIS = %d", val)
	}
}

func TestPackingOddCycleBB(t *testing.T) {
	g := gen.Cycle(11)
	inst := misILP(t, g, nil)
	_, val, m := PackingLocal(inst, allVars(11), Options{})
	if m != MethodBranchBound {
		t.Fatalf("method = %v, want branch-and-bound", m)
	}
	if val != 5 {
		t.Fatalf("C11 MIS = %d", val)
	}
}

func TestPackingGreedyFallback(t *testing.T) {
	g := gen.Cycle(51)
	inst := misILP(t, g, nil)
	_, val, m := PackingLocal(inst, allVars(51), Options{MaxExactVars: 20})
	if m != MethodGreedy {
		t.Fatalf("method = %v, want greedy", m)
	}
	if val < 17 { // greedy on a cycle achieves at least n/3
		t.Fatalf("greedy MIS = %d", val)
	}
}

func TestPackingForceGreedy(t *testing.T) {
	g := gen.Path(5)
	inst := misILP(t, g, nil)
	_, _, m := PackingLocal(inst, allVars(5), Options{ForceGreedy: true})
	if m != MethodGreedy {
		t.Fatalf("ForceGreedy ignored: %v", m)
	}
}

func TestPackingPartialCluster(t *testing.T) {
	// Cluster = left half of a path; constraints crossing the boundary must
	// still be respected by the zero extension (they are, trivially).
	g := gen.Path(10)
	inst := misILP(t, g, nil)
	cluster := []int32{0, 1, 2, 3, 4}
	sol, val, _ := PackingLocal(inst, cluster, Options{})
	if val != 3 { // MIS of P5
		t.Fatalf("half-path MIS = %d", val)
	}
	for v := 5; v < 10; v++ {
		if sol[v] {
			t.Fatal("solution set a variable outside the cluster")
		}
	}
	if ok, _ := inst.Feasible(sol); !ok {
		t.Fatal("zero extension infeasible")
	}
}

func TestPackingEmptyCluster(t *testing.T) {
	inst := misILP(t, gen.Path(4), nil)
	sol, val, _ := PackingLocal(inst, nil, Options{})
	if val != 0 || sol.CountOnes() != 0 {
		t.Fatal("empty cluster should give empty solution")
	}
}

func TestPackingWeightedTree(t *testing.T) {
	g := gen.Star(5)
	w := []int64{10, 1, 1, 1, 1} // heavy center beats the 4 leaves
	inst := misILP(t, g, w)
	sol, val, m := PackingLocal(inst, allVars(5), Options{})
	if m != MethodTreeDP {
		t.Fatalf("method = %v", m)
	}
	if val != 10 || !sol[0] {
		t.Fatalf("weighted star MIS = %d, sol[0]=%v", val, sol[0])
	}
}

func TestPackingBBRandomAgainstBrute(t *testing.T) {
	rng := xrand.New(15)
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(8)
		// Random general packing instance: random coefficients/rhs.
		w := make([]int64, n)
		for i := range w {
			w[i] = 1 + int64(rng.Intn(6))
		}
		b := ilp.NewBuilder(ilp.Packing, w)
		cons := 2 + rng.Intn(5)
		for j := 0; j < cons; j++ {
			var terms []ilp.Term
			for v := 0; v < n; v++ {
				if rng.Bernoulli(0.5) {
					terms = append(terms, ilp.Term{Var: v, Coeff: float64(1 + rng.Intn(3))})
				}
			}
			b.AddConstraint(terms, float64(rng.Intn(5)))
		}
		inst, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		sol, val, m := PackingLocal(inst, allVars(n), Options{DisableStructure: true})
		if m != MethodBranchBound {
			t.Fatalf("trial %d: method %v", trial, m)
		}
		if want := brutePackingLocal(inst, allVars(n)); val != want {
			t.Fatalf("trial %d: bb=%d brute=%d", trial, val, want)
		}
		if ok, j := inst.Feasible(sol); !ok {
			t.Fatalf("trial %d: infeasible at %d", trial, j)
		}
	}
}

func TestCoveringTreeVC(t *testing.T) {
	g := gen.Path(9)
	inst := vcILP(t, g, nil)
	sol, val, m, err := CoveringLocal(inst, allVars(9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m != MethodTreeDP {
		t.Fatalf("method = %v", m)
	}
	if val != 4 { // MVC of P9
		t.Fatalf("P9 MVC = %d", val)
	}
	if ok, _ := inst.Feasible(sol); !ok {
		t.Fatal("cover infeasible")
	}
}

func TestCoveringBipartiteVC(t *testing.T) {
	g := gen.CompleteBipartite(3, 5)
	inst := vcILP(t, g, nil)
	_, val, m, err := CoveringLocal(inst, allVars(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m != MethodBipartite {
		t.Fatalf("method = %v", m)
	}
	if val != 3 {
		t.Fatalf("K(3,5) MVC = %d", val)
	}
}

func TestCoveringPartialClusterDropsCrossEdges(t *testing.T) {
	// Covering restricted to {0,1,2} of P6 only enforces edges inside.
	g := gen.Path(6)
	inst := vcILP(t, g, nil)
	sol, val, _, err := CoveringLocal(inst, []int32{0, 1, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if val != 1 { // edges {0,1},{1,2}: vertex 1 covers both
		t.Fatalf("local MVC = %d", val)
	}
	if !sol[1] {
		t.Fatal("expected vertex 1 in cover")
	}
}

func TestCoveringMDSSmallBB(t *testing.T) {
	g := gen.Cycle(9)
	inst := mdsILP(t, g)
	_, val, m, err := CoveringLocal(inst, allVars(9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m != MethodBranchBound {
		t.Fatalf("method = %v", m)
	}
	if val != 3 { // gamma(C9) = 3
		t.Fatalf("C9 MDS = %d", val)
	}
}

func TestCoveringGreedyFallback(t *testing.T) {
	g := gen.Cycle(60)
	inst := mdsILP(t, g)
	sol, val, m, err := CoveringLocal(inst, allVars(60), Options{MaxExactVars: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m != MethodGreedy {
		t.Fatalf("method = %v", m)
	}
	if ok, _ := inst.Feasible(sol); !ok {
		t.Fatal("greedy cover infeasible")
	}
	if val < 20 || val > 40 { // gamma(C60)=20; greedy within 2x here
		t.Fatalf("greedy MDS = %d", val)
	}
}

func TestCoveringInfeasibleLocal(t *testing.T) {
	// Constraint requires 2 from a single variable with coeff 1: impossible.
	b := ilp.NewBuilder(ilp.Covering, []int64{1})
	b.AddConstraint([]ilp.Term{{Var: 0, Coeff: 1}}, 2)
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = CoveringLocal(inst, []int32{0}, Options{})
	if !errors.Is(err, ErrInfeasibleLocal) {
		t.Fatalf("err = %v, want ErrInfeasibleLocal", err)
	}
}

func TestCoveringForcedRank1(t *testing.T) {
	// x_2 >= 1 forces vertex 2 even in the tree fast path.
	g := gen.Path(5)
	w := []int64{1, 1, 1, 1, 1}
	b := ilp.NewBuilder(ilp.Covering, w)
	g.Edges(func(u, v int) {
		b.AddConstraint([]ilp.Term{{Var: u, Coeff: 1}, {Var: v, Coeff: 1}}, 1)
	})
	b.AddConstraint([]ilp.Term{{Var: 2, Coeff: 1}}, 1)
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol, _, _, err := CoveringLocal(inst, allVars(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol[2] {
		t.Fatal("forced variable not taken")
	}
	if ok, _ := inst.Feasible(sol); !ok {
		t.Fatal("infeasible")
	}
}

// repeatedVarILP builds weights {5, 1} with rows x0 + x0 and x0 + x1 (<= 1
// for packing, >= 1 for covering). The first row is 2·x0, not an edge.
func repeatedVarILP(t *testing.T, kind ilp.Kind) *ilp.Instance {
	t.Helper()
	b := ilp.NewBuilder(kind, []int64{5, 1})
	b.AddConstraint([]ilp.Term{{Var: 0, Coeff: 1}, {Var: 0, Coeff: 1}}, 1)
	b.AddConstraint([]ilp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, 1)
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestRepeatedVariableRow pins local solves on a two-term unit row that
// repeats its variable: the instance is not in edge form, and the solution
// is feasible and optimal (x0 = 0 for packing, x0 = 1 for covering).
func TestRepeatedVariableRow(t *testing.T) {
	pinst := repeatedVarILP(t, ilp.Packing)
	if pinst.Rank2Unit() {
		t.Fatal("x0 + x0 <= 1 taken for an edge")
	}
	sol, val, m := PackingLocal(pinst, allVars(2), Options{})
	if ok, j := pinst.Feasible(sol); !ok || val != 1 || !slices.Equal(sol, ilp.Solution{false, true}) {
		t.Fatalf("packing: %v value %d via %v, feasible=%v (row %d)", sol, val, m, ok, j)
	}
	sol, val = greedyPacking(pinst, allVars(2), new(Scratch))
	if ok, _ := pinst.Feasible(sol); !ok || val != 1 {
		t.Fatalf("greedy packing: %v value %d, feasible=%v", sol, val, ok)
	}

	cinst := repeatedVarILP(t, ilp.Covering)
	if cinst.Rank2Unit() {
		t.Fatal("x0 + x0 >= 1 taken for an edge")
	}
	sol, val, m, err := CoveringLocal(cinst, allVars(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, j := cinst.Feasible(sol); !ok || val != 5 || !slices.Equal(sol, ilp.Solution{true, false}) {
		t.Fatalf("covering: %v value %d via %v, feasible=%v (row %d)", sol, val, m, ok, j)
	}
}

// TestRepeatedVariableCoefficientsSum pins a row that repeats its variable
// with different coefficients: 1·x0 + 3·x0 <= 3 is 4·x0 <= 3, so x0 must
// stay 0 however much it weighs.
func TestRepeatedVariableCoefficientsSum(t *testing.T) {
	b := ilp.NewBuilder(ilp.Packing, []int64{5})
	b.AddConstraint([]ilp.Term{{Var: 0, Coeff: 1}, {Var: 0, Coeff: 3}}, 3)
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol, val, m := PackingLocal(inst, allVars(1), Options{})
	if ok, j := inst.Feasible(sol); !ok || val != 0 {
		t.Fatalf("packing: %v value %d via %v, feasible=%v (row %d)", sol, val, m, ok, j)
	}
	sol, val = greedyPacking(inst, allVars(1), new(Scratch))
	if ok, j := inst.Feasible(sol); !ok || val != 0 {
		t.Fatalf("greedy packing: %v value %d, feasible=%v (row %d)", sol, val, ok, j)
	}
}

func TestCoveringBBRandomAgainstBrute(t *testing.T) {
	rng := xrand.New(25)
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(8)
		w := make([]int64, n)
		for i := range w {
			w[i] = 1 + int64(rng.Intn(6))
		}
		b := ilp.NewBuilder(ilp.Covering, w)
		cons := 2 + rng.Intn(5)
		for j := 0; j < cons; j++ {
			var terms []ilp.Term
			total := 0.0
			for v := 0; v < n; v++ {
				if rng.Bernoulli(0.6) {
					c := float64(1 + rng.Intn(3))
					terms = append(terms, ilp.Term{Var: v, Coeff: c})
					total += c
				}
			}
			if len(terms) == 0 {
				continue
			}
			// rhs at most the max achievable so the instance is feasible.
			b.AddConstraint(terms, float64(rng.Intn(int(total)+1)))
		}
		inst, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		sol, val, m, err := CoveringLocal(inst, allVars(n), Options{DisableStructure: true})
		if err != nil {
			t.Fatal(err)
		}
		if m != MethodBranchBound {
			t.Fatalf("trial %d: method %v", trial, m)
		}
		if want := bruteCoveringLocal(inst, allVars(n)); val != want {
			t.Fatalf("trial %d: bb=%d brute=%d", trial, val, want)
		}
		if ok, j := inst.Feasible(sol); !ok {
			t.Fatalf("trial %d: infeasible at %d", trial, j)
		}
	}
}

func TestGreedyCoveringAlwaysFeasible(t *testing.T) {
	rng := xrand.New(35)
	for trial := 0; trial < 30; trial++ {
		g := gen.GNP(30, 0.15, rng)
		inst := mdsILP(t, g)
		vars := allVars(30)
		in := make([]bool, 30)
		for _, v := range vars {
			in[v] = true
		}
		local := inst.LocalConstraints(in)
		sol, _ := GreedyCovering(inst, vars, local)
		if ok, j := inst.FeasibleOn(sol, local); !ok {
			t.Fatalf("trial %d: greedy cover violates %d", trial, j)
		}
	}
}

func TestMethodString(t *testing.T) {
	for _, m := range []Method{MethodTreeDP, MethodBipartite, MethodBranchBound, MethodGreedy} {
		if m.String() == "" {
			t.Fatal("empty method string")
		}
	}
	if MethodGreedy.Exact() {
		t.Fatal("greedy must not be exact")
	}
	if !MethodTreeDP.Exact() || !MethodBranchBound.Exact() {
		t.Fatal("exact methods mislabeled")
	}
	if Method(0).String() == "" {
		t.Fatal("unknown method should print")
	}
}

func BenchmarkPackingBB20(b *testing.B) {
	g := gen.Cycle(21)
	inst := misILP(b, g, nil)
	vars := allVars(21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = PackingLocal(inst, vars, Options{DisableStructure: true})
	}
}

// --- Reference oracles -----------------------------------------------------

// refCoeff is the coefficient of variable v in constraint cj (0 if absent),
// by linear scan: the first matching term, as the binary search returns.
func refCoeff(inst *ilp.Instance, cj, v int32) float64 {
	for _, t := range inst.Constraint(int(cj)).Terms {
		if t.Var == int(v) {
			return t.Coeff
		}
	}
	return 0
}

// refGreedyPacking is the straightforward map-based greedy packing the
// dense greedyPacking must agree with pick for pick.
func refGreedyPacking(inst *ilp.Instance, vars []int32) (ilp.Solution, int64) {
	order := append([]int32(nil), vars...)
	sort.Slice(order, func(i, j int) bool {
		wi, wj := inst.Weight(int(order[i])), inst.Weight(int(order[j]))
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	res := map[int32]float64{}
	sol := inst.NewSolution()
	var val int64
	for _, v := range order {
		fits := true
		for _, cj := range inst.ConstraintsOf(int(v)) {
			r, ok := res[cj]
			if !ok {
				r = inst.Constraint(int(cj)).B
			}
			if refCoeff(inst, cj, v) > r+1e-9 {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		for _, cj := range inst.ConstraintsOf(int(v)) {
			r, ok := res[cj]
			if !ok {
				r = inst.Constraint(int(cj)).B
			}
			res[cj] = r - refCoeff(inst, cj, v)
		}
		sol[v] = true
		val += inst.Weight(int(v))
	}
	return sol, val
}

// refGreedyCovering is the straightforward map-based greedy set multicover
// (a full rescan of every variable per pick) that the lazy GreedyCovering
// must agree with pick for pick.
func refGreedyCovering(inst *ilp.Instance, vars []int32, local []int32) (ilp.Solution, int64) {
	deficit := make(map[int32]float64, len(local))
	for _, cj := range local {
		if b := inst.Constraint(int(cj)).B; b > 0 {
			deficit[cj] = b
		}
	}
	sol := inst.NewSolution()
	var val int64
	taken := make(map[int32]bool, len(vars))
	for len(deficit) > 0 {
		bestV := int32(-1)
		bestRatio := 0.0
		for _, v := range vars {
			if taken[v] {
				continue
			}
			covered := 0.0
			for _, cj := range inst.ConstraintsOf(int(v)) {
				if d, ok := deficit[cj]; ok {
					c := refCoeff(inst, cj, v)
					if c > d {
						c = d
					}
					covered += c
				}
			}
			if covered <= 0 {
				continue
			}
			ratio := float64(inst.Weight(int(v))) / covered
			if bestV == -1 || ratio < bestRatio {
				bestV, bestRatio = v, ratio
			}
		}
		if bestV == -1 {
			break
		}
		taken[bestV] = true
		sol[bestV] = true
		val += inst.Weight(int(bestV))
		for _, cj := range inst.ConstraintsOf(int(bestV)) {
			if d, ok := deficit[cj]; ok {
				d -= refCoeff(inst, cj, bestV)
				if d <= 1e-9 {
					delete(deficit, cj)
				} else {
					deficit[cj] = d
				}
			}
		}
	}
	return sol, val
}

// randomILP draws an instance with weights 0..3, coefficients 1..3 and
// right-hand sides 0..3; a term may repeat a variable.
func randomILP(t *testing.T, kind ilp.Kind, rng *xrand.RNG) *ilp.Instance {
	t.Helper()
	n := 1 + rng.Intn(24)
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(rng.Intn(4))
	}
	b := ilp.NewBuilder(kind, w)
	m := rng.Intn(3 * n)
	for j := 0; j < m; j++ {
		terms := make([]ilp.Term, 1+rng.Intn(5))
		for k := range terms {
			terms[k] = ilp.Term{Var: rng.Intn(n), Coeff: float64(1 + rng.Intn(3))}
		}
		b.AddConstraint(terms, float64(rng.Intn(4)))
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// randomCluster returns a shuffled random subset of the variables with
// some entries repeated.
func randomCluster(n int, rng *xrand.RNG) []int32 {
	var out []int32
	for v := 0; v < n; v++ {
		if rng.Intn(4) != 0 {
			out = append(out, int32(v))
			if rng.Intn(6) == 0 {
				out = append(out, int32(v))
			}
		}
	}
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// scratchTestGraph joins, by vertex range, a 100-vertex random tree
// (0-99), an 8-cycle (100-107), a 9-cycle (108-116) and GNP(200, 0.05)
// (117-316): clusters on them take the tree-DP, bipartite,
// branch-and-bound and greedy paths.
func scratchTestGraph() *graph.Graph {
	var edges [][2]int
	add := func(g *graph.Graph, off int) {
		g.Edges(func(u, v int) { edges = append(edges, [2]int{u + off, v + off}) })
	}
	add(gen.RandomTree(100, xrand.New(3)), 0)
	add(gen.Cycle(8), 100)
	add(gen.Cycle(9), 108)
	add(gen.GNP(200, 0.05, xrand.New(4)), 117)
	return graph.FromEdges(317, edges)
}

// vertexRange returns the ids lo..hi-1.
func vertexRange(lo, hi int) []int32 {
	vs := make([]int32, 0, hi-lo)
	for v := lo; v < hi; v++ {
		vs = append(vs, int32(v))
	}
	return vs
}

// TestScratchReuseMatchesFresh runs one Scratch through a sequence of local
// packing solves on two instances of different sizes: clusters that take
// each solver path, clusters with duplicate and out-of-range entries, an
// empty cluster, and clusters that shrink and grow. Every result must equal
// a fresh PackingLocal call, and the position index must be all zero again
// after each solve, so state left over from an earlier cluster would show.
func TestScratchReuseMatchesFresh(t *testing.T) {
	g := scratchTestGraph()
	w := make([]int64, g.N())
	wrng := xrand.New(8)
	for v := range w {
		w[v] = 1 + int64(wrng.Intn(5))
	}
	for v := 100; v < 108; v++ {
		w[v] = 1 // König's bipartite path needs unit weights
	}
	big := misILP(t, g, w)
	small := misILP(t, gen.Cycle(9), nil)
	greedyPart := vertexRange(117, 317)
	steps := []struct {
		inst    *ilp.Instance
		cluster []int32
		opt     Options
		want    Method
	}{
		{big, greedyPart, Options{}, MethodGreedy},
		{big, vertexRange(0, 100), Options{}, MethodTreeDP},
		{big, nil, Options{}, MethodBranchBound},
		{big, vertexRange(100, 108), Options{}, MethodBipartite},
		{big, vertexRange(108, 117), Options{}, MethodBranchBound},
		{big, append(vertexRange(120, 140), 125, 130, -1, 317, 5000, 120), Options{}, MethodBranchBound},
		{small, vertexRange(0, 9), Options{}, MethodBranchBound},
		{big, greedyPart[:150], Options{}, MethodGreedy},
		{big, greedyPart[:60], Options{}, MethodGreedy},
		{big, append(slices.Clone(greedyPart), greedyPart[:40]...), Options{}, MethodGreedy},
		{small, append(vertexRange(0, 9), 3, 9, -2), Options{ForceGreedy: true}, MethodGreedy},
		{big, vertexRange(0, 117), Options{}, MethodGreedy},
		{big, vertexRange(0, 20), Options{DisableStructure: true}, MethodBranchBound},
		{big, vertexRange(0, 317), Options{}, MethodGreedy},
		{big, vertexRange(50, 52), Options{}, MethodTreeDP},
	}
	var s Scratch
	for i, st := range steps {
		gotSol, gotVal, gotM := s.PackingLocal(st.inst, st.cluster, st.opt)
		wantSol, wantVal, wantM := PackingLocal(st.inst, st.cluster, st.opt)
		if gotM != st.want || wantM != st.want {
			t.Fatalf("step %d: method %v on the reused scratch and %v fresh, want %v", i, gotM, wantM, st.want)
		}
		if gotVal != wantVal || !slices.Equal(gotSol, wantSol) {
			t.Fatalf("step %d (%v): reused scratch gives %v (%d), fresh %v (%d)", i, gotM, gotSol, gotVal, wantSol, wantVal)
		}
		if ok, j := st.inst.Feasible(gotSol); !ok {
			t.Fatalf("step %d: infeasible at row %d", i, j)
		}
		for v, p := range s.at {
			if p != 0 {
				t.Fatalf("step %d: position index of %d left at %d", i, v, p)
			}
		}
	}
}

func TestGreedyMatchesReference(t *testing.T) {
	rng := xrand.New(77)
	// One scratch for every trial: each instance reuses the residual the
	// previous, differently sized one left behind.
	var s Scratch
	for trial := 0; trial < 3000; trial++ {
		pinst := randomILP(t, ilp.Packing, rng)
		vars := randomCluster(pinst.NumVars(), rng)
		gotSol, gotVal := greedyPacking(pinst, vars, &s)
		wantSol, wantVal := refGreedyPacking(pinst, vars)
		if gotVal != wantVal || !slices.Equal(gotSol, wantSol) {
			t.Fatalf("trial %d packing: got %v (%d), want %v (%d)", trial, gotSol, gotVal, wantSol, wantVal)
		}

		cinst := randomILP(t, ilp.Covering, rng)
		vars = randomCluster(cinst.NumVars(), rng)
		in := make([]bool, cinst.NumVars())
		for _, v := range vars {
			in[v] = true
		}
		local := cinst.LocalConstraints(in)
		gotSol, gotVal = GreedyCovering(cinst, vars, local)
		wantSol, wantVal = refGreedyCovering(cinst, vars, local)
		if gotVal != wantVal || !slices.Equal(gotSol, wantSol) {
			t.Fatalf("trial %d covering: got %v (%d), want %v (%d)", trial, gotSol, gotVal, wantSol, wantVal)
		}
	}
}

// BenchmarkGreedyCovering times the greedy covering fallback on a whole
// dominating-set instance of GNP(1000, 8/999), the shape the covering
// preparation hands it. "reference" is the map-based test oracle.
func BenchmarkGreedyCovering(b *testing.B) {
	const n = 1000
	g := gen.GNP(n, 8.0/(n-1), xrand.New(1))
	inst := mdsILP(b, g)
	vars := allVars(n)
	in := make([]bool, n)
	for _, v := range vars {
		in[v] = true
	}
	local := inst.LocalConstraints(in)
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = GreedyCovering(inst, vars, local)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = refGreedyCovering(inst, vars, local)
		}
	})
}

// refClusterGraph is the cluster graph as built before the odd-cycle
// check: a NumVars()-long position array and a membership mask.
func refClusterGraph(inst *ilp.Instance, vars []int32) *graph.Graph {
	pos := make([]int32, inst.NumVars())
	in := make([]bool, inst.NumVars())
	for i, v := range vars {
		pos[v] = int32(i)
		in[v] = true
	}
	b := graph.NewBuilder(len(vars))
	for _, v := range vars {
		for _, cj := range inst.ConstraintsOf(int(v)) {
			c := inst.Constraint(int(cj))
			if len(c.Terms) == 2 && c.Terms[0].Var == int(v) && in[c.Terms[1].Var] {
				b.AddEdge(int(pos[v]), int(pos[c.Terms[1].Var]))
			}
		}
	}
	return b.Build()
}

// refDedup returns the distinct cluster entries in first-seen order.
func refDedup(inst *ilp.Instance, cluster []int32) []int32 {
	seen := make([]bool, inst.NumVars())
	var vars []int32
	for _, v := range cluster {
		if !seen[v] {
			seen[v] = true
			vars = append(vars, v)
		}
	}
	return vars
}

// refPackingLocal is PackingLocal with the structured path that always
// builds the cluster graph and lets tree DP and König reject it.
func refPackingLocal(inst *ilp.Instance, cluster []int32) (ilp.Solution, int64, Method) {
	vars := refDedup(inst, cluster)
	if inst.Rank2Unit() && len(vars) > 0 {
		g := refClusterGraph(inst, vars)
		w := make([]int64, len(vars))
		for i, v := range vars {
			w[i] = inst.Weight(int(v))
		}
		if set, val, err := treedp.MaxIndependentSet(g, w); err == nil {
			return liftSolution(inst, vars, set), val, MethodTreeDP
		}
		if unitWeights(inst, vars) {
			if r := matching.BipartiteAuto(g); r != nil {
				return liftSolution(inst, vars, r.MaxIndependentSet), int64(len(r.MaxIndependentSet)), MethodBipartite
			}
		}
	}
	return PackingLocal(inst, cluster, Options{DisableStructure: true})
}

// refCoveringLocal is CoveringLocal with the always-build structured path.
func refCoveringLocal(inst *ilp.Instance, cluster []int32) (ilp.Solution, int64, Method, error) {
	vars := refDedup(inst, cluster)
	in := make([]bool, inst.NumVars())
	for _, v := range vars {
		in[v] = true
	}
	local := inst.LocalConstraints(in)
	if !inst.Rank2Unit() || len(local) == 0 {
		return CoveringLocal(inst, cluster, Options{DisableStructure: true})
	}
	forced := map[int32]bool{}
	for _, cj := range local {
		if c := inst.Constraint(int(cj)); len(c.Terms) == 1 {
			forced[int32(c.Terms[0].Var)] = true
		}
	}
	g := refClusterGraph(inst, vars)
	w := make([]int64, len(vars))
	for i, v := range vars {
		if !forced[v] {
			w[i] = inst.Weight(int(v))
		}
	}
	var sol ilp.Solution
	var method Method
	if cover, _, err := treedp.MinVertexCover(g, w); err == nil {
		sol, method = liftSolution(inst, vars, cover), MethodTreeDP
	} else if r := matching.BipartiteAuto(g); unitWeights(inst, vars) && len(forced) == 0 && r != nil {
		sol, method = liftSolution(inst, vars, r.MinVertexCover), MethodBipartite
	} else {
		return CoveringLocal(inst, cluster, Options{DisableStructure: true})
	}
	var val int64
	for v := range forced {
		sol[v] = true
	}
	for _, v := range vars {
		if sol[v] {
			val += inst.Weight(int(v))
		}
	}
	return sol, val, method, nil
}

// TestStructuredSkipMatchesCSR checks the odd-cycle early exit against the
// always-build structured path on random edge-form instances (forests,
// cycles and random graphs, unit and random weights, rank-1 rows for
// covering) and random clusters: same solution, value and method.
func TestStructuredSkipMatchesCSR(t *testing.T) {
	rng := xrand.New(91)
	methods := map[Method]int{}
	for trial := 0; trial < 800; trial++ {
		n := 2 + rng.Intn(60)
		var g *graph.Graph
		switch trial % 4 {
		case 0:
			g = gen.RandomTree(n, rng)
		case 1:
			g = gen.Cycle(max(n, 3))
		case 2:
			g = gen.GNP(n, 1.5/float64(n), rng)
		default:
			// Dense and small, so that branch-and-bound stays quick.
			n = 2 + rng.Intn(20)
			g = gen.GNP(n, 4/float64(n), rng)
		}
		w := make([]int64, g.N())
		for i := range w {
			w[i] = 1
			if trial%3 == 0 {
				w[i] = int64(rng.Intn(4))
			}
		}
		pinst := misILP(t, g, w)
		cluster := randomCluster(g.N(), rng)
		gotSol, gotVal, gotM := PackingLocal(pinst, cluster, Options{})
		wantSol, wantVal, wantM := refPackingLocal(pinst, cluster)
		if gotM != wantM || gotVal != wantVal || !slices.Equal(gotSol, wantSol) {
			t.Fatalf("trial %d packing: %v (%d) via %v, want %v (%d) via %v", trial, gotSol, gotVal, gotM, wantSol, wantVal, wantM)
		}
		methods[gotM]++

		b := ilp.NewBuilder(ilp.Covering, w)
		g.Edges(func(u, v int) { b.AddConstraint([]ilp.Term{{Var: u, Coeff: 1}, {Var: v, Coeff: 1}}, 1) })
		if trial%5 == 0 {
			b.AddConstraint([]ilp.Term{{Var: rng.Intn(g.N()), Coeff: 1}}, 1)
		}
		cinst, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		gotSol, gotVal, gotM, gotErr := CoveringLocal(cinst, cluster, Options{})
		wantSol, wantVal, wantM, wantErr := refCoveringLocal(cinst, cluster)
		if gotM != wantM || gotVal != wantVal || !slices.Equal(gotSol, wantSol) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d covering: %v (%d) via %v (%v), want %v (%d) via %v (%v)", trial, gotSol, gotVal, gotM, gotErr, wantSol, wantVal, wantM, wantErr)
		}
		methods[gotM]++
	}
	for _, m := range []Method{MethodTreeDP, MethodBipartite, MethodBranchBound, MethodGreedy} {
		if methods[m] == 0 {
			t.Fatalf("no trial ran %v: %v", m, methods)
		}
	}
}
