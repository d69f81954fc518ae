package solve

import (
	"errors"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ilp"
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
// dense GreedyPacking must agree with pick for pick.
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

func TestGreedyMatchesReference(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 3000; trial++ {
		pinst := randomILP(t, ilp.Packing, rng)
		vars := randomCluster(pinst.NumVars(), rng)
		gotSol, gotVal := GreedyPacking(pinst, vars)
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
