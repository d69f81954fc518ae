package ilp

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/hypergraph"
)

// misInstance builds the MIS packing ILP for a triangle plus a pendant:
// vertices 0-1-2 form a triangle, 3 hangs off 2. Constraint per edge:
// x_u + x_v <= 1.
func misInstance(t *testing.T) *Instance {
	t.Helper()
	b := NewBuilder(Packing, []int64{1, 1, 1, 1})
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}
	for _, e := range edges {
		b.AddConstraint([]Term{{e[0], 1}, {e[1], 1}}, 1)
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return inst
}

// vcInstance builds the vertex-cover covering ILP on the same graph.
func vcInstance(t *testing.T) *Instance {
	t.Helper()
	b := NewBuilder(Covering, []int64{1, 1, 1, 1})
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}
	for _, e := range edges {
		b.AddConstraint([]Term{{e[0], 1}, {e[1], 1}}, 1)
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return inst
}

func TestKindString(t *testing.T) {
	if Packing.String() != "packing" || Covering.String() != "covering" {
		t.Fatal("kind strings")
	}
	if Kind(0).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := NewBuilder(Kind(99), []int64{1}).Build(); !errors.Is(err, ErrBadInstance) {
		t.Fatal("bad kind accepted")
	}
	if _, err := NewBuilder(Packing, []int64{-1}).Build(); !errors.Is(err, ErrBadInstance) {
		t.Fatal("negative weight accepted")
	}
	b := NewBuilder(Packing, []int64{1, 1})
	b.AddConstraint([]Term{{0, -2}}, 1)
	if _, err := b.Build(); !errors.Is(err, ErrBadInstance) {
		t.Fatal("negative coefficient accepted")
	}
	b = NewBuilder(Packing, []int64{1})
	b.AddConstraint([]Term{{5, 1}}, 1)
	if _, err := b.Build(); !errors.Is(err, ErrBadInstance) {
		t.Fatal("out-of-range variable accepted")
	}
	b = NewBuilder(Covering, []int64{1})
	b.AddConstraint(nil, 2)
	if _, err := b.Build(); !errors.Is(err, ErrBadInstance) {
		t.Fatal("unsatisfiable empty covering constraint accepted")
	}
	// Empty packing constraint with rhs 0 is fine (vacuous).
	b = NewBuilder(Packing, []int64{1})
	b.AddConstraint(nil, 0)
	if _, err := b.Build(); err != nil {
		t.Fatalf("vacuous constraint rejected: %v", err)
	}
}

func TestFeasibilityPacking(t *testing.T) {
	inst := misInstance(t)
	s := inst.NewSolution()
	if ok, _ := inst.Feasible(s); !ok {
		t.Fatal("all-zero must be feasible for packing")
	}
	s[0], s[3] = true, true // independent set {0, 3}
	if ok, j := inst.Feasible(s); !ok {
		t.Fatalf("independent set rejected at constraint %d", j)
	}
	if inst.Value(s) != 2 {
		t.Fatalf("value = %d", inst.Value(s))
	}
	s[1] = true // 0 and 1 adjacent
	if ok, _ := inst.Feasible(s); ok {
		t.Fatal("non-independent set accepted")
	}
}

func TestFeasibilityCovering(t *testing.T) {
	inst := vcInstance(t)
	s := inst.NewSolution()
	if ok, _ := inst.Feasible(s); ok {
		t.Fatal("all-zero must violate covering")
	}
	s[0], s[2] = true, true // {0, 2} is a vertex cover
	if ok, j := inst.Feasible(s); !ok {
		t.Fatalf("vertex cover rejected at %d", j)
	}
	s[0] = false // {2} misses edge 0-1
	if ok, _ := inst.Feasible(s); ok {
		t.Fatal("non-cover accepted")
	}
}

func TestFeasibleOn(t *testing.T) {
	inst := vcInstance(t)
	s := inst.NewSolution()
	s[2] = true
	// Constraint 3 is edge {2,3}, satisfied; constraint 0 is {0,1}, not.
	if ok, _ := inst.FeasibleOn(s, []int32{3}); !ok {
		t.Fatal("satisfied subset reported infeasible")
	}
	if ok, j := inst.FeasibleOn(s, []int32{0}); ok || j != 0 {
		t.Fatal("violated subset reported feasible")
	}
}

func TestWeights(t *testing.T) {
	b := NewBuilder(Packing, []int64{3, 5, 7})
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if inst.TotalWeight() != 15 {
		t.Fatalf("total weight = %d", inst.TotalWeight())
	}
	s := inst.NewSolution()
	s[1] = true
	if inst.Value(s) != 5 {
		t.Fatalf("value = %d", inst.Value(s))
	}
	if inst.WeightOf(s, []int32{0, 1}) != 5 {
		t.Fatal("WeightOf restricted")
	}
	if inst.WeightOf(s, []int32{0, 2}) != 0 {
		t.Fatal("WeightOf should ignore unset vars")
	}
}

func TestHypergraphOfInstance(t *testing.T) {
	inst := misInstance(t)
	h := inst.Hypergraph()
	if h.N() != 4 || h.M() != 4 {
		t.Fatalf("hypergraph n=%d m=%d", h.N(), h.M())
	}
	// Primal graph should match the original triangle+pendant.
	p := h.Primal()
	if p.M() != 4 {
		t.Fatalf("primal m = %d", p.M())
	}
	if !p.HasEdge(2, 3) || p.HasEdge(0, 3) {
		t.Fatal("primal structure wrong")
	}
}

// TestHypergraphConcurrentFirstUse builds the lazily built hypergraph from
// 16 goroutines at once: all must get the same *hypergraph.H, and its
// primal graph must equal an eager build from the constraints.
func TestHypergraphConcurrentFirstUse(t *testing.T) {
	const n = 60
	b := NewBuilder(Covering, make([]int64, n))
	for j := 0; j < 3*n; j++ {
		terms := []Term{{j % n, 1}, {(j * 7) % n, 2}, {(j*13 + 5) % n, 1}}
		if j%4 == 0 {
			terms = terms[:1]
		}
		b.AddConstraint(terms, 1)
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	got := make([]*hypergraph.H, workers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			got[i] = inst.Hypergraph()
		}()
	}
	start.Done()
	wg.Wait()
	for i, h := range got {
		if h != got[0] {
			t.Fatalf("goroutine %d got a different hypergraph", i)
		}
	}

	eb := hypergraph.NewBuilder(n)
	for j := 0; j < inst.NumConstraints(); j++ {
		var vs []int
		for _, term := range inst.Constraint(j).Terms {
			vs = append(vs, term.Var)
		}
		eb.AddEdge(vs...)
	}
	want := eb.Build()
	if got[0].M() != want.M() {
		t.Fatalf("hyperedges = %d, want %d", got[0].M(), want.M())
	}
	for e := 0; e < want.M(); e++ {
		if !slices.Equal(got[0].Edge(e), want.Edge(e)) {
			t.Fatalf("hyperedge %d = %v, want %v", e, got[0].Edge(e), want.Edge(e))
		}
	}
	gp, wp := got[0].Primal(), want.Primal()
	if gp.N() != wp.N() || gp.M() != wp.M() {
		t.Fatalf("primal n=%d m=%d, want n=%d m=%d", gp.N(), gp.M(), wp.N(), wp.M())
	}
	for v := 0; v < n; v++ {
		if !slices.Equal(gp.Neighbors(v), wp.Neighbors(v)) {
			t.Fatalf("primal neighbours of %d = %v, want %v", v, gp.Neighbors(v), wp.Neighbors(v))
		}
	}
}

func TestCoeff(t *testing.T) {
	b := NewBuilder(Packing, make([]int64, 6))
	b.AddConstraint([]Term{{4, 3}, {1, 2}, {4, 5}}, 9)
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range []float64{0, 2, 0, 0, 3, 0} {
		if got := inst.Coeff(0, v); got != want {
			t.Fatalf("Coeff(0, %d) = %v, want %v", v, got, want)
		}
	}
}

func TestRank2Unit(t *testing.T) {
	if !misInstance(t).Rank2Unit() || !vcInstance(t).Rank2Unit() {
		t.Fatal("edge-form instances not detected")
	}
	for _, c := range []struct {
		terms []Term
		rhs   float64
	}{
		{[]Term{{0, 1}, {1, 1}, {2, 1}}, 1},
		{[]Term{{0, 2}, {1, 1}}, 1},
		{[]Term{{0, 1}, {1, 1}}, 2},
	} {
		b := NewBuilder(Covering, make([]int64, 3))
		b.AddConstraint([]Term{{0, 1}}, 1)
		b.AddConstraint(c.terms, c.rhs)
		inst, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if inst.Rank2Unit() {
			t.Fatalf("%v >= %v detected as edge form", c.terms, c.rhs)
		}
	}
}

func TestConstraintsOf(t *testing.T) {
	inst := misInstance(t)
	if got := inst.ConstraintsOf(2); len(got) != 3 {
		t.Fatalf("vertex 2 constraints = %v", got)
	}
	if got := inst.ConstraintsOf(3); len(got) != 1 {
		t.Fatalf("vertex 3 constraints = %v", got)
	}
}

func TestLocalConstraintsPacking(t *testing.T) {
	inst := misInstance(t)
	// Restrict to {2, 3}: packing keeps every constraint touching the set —
	// all four constraints touch vertex 2 or 3 here except {0,1}.
	in := []bool{false, false, true, true}
	local := inst.LocalConstraints(in)
	if len(local) != 3 {
		t.Fatalf("packing local constraints = %v", local)
	}
}

func TestLocalConstraintsCovering(t *testing.T) {
	inst := vcInstance(t)
	// Restrict to {2, 3}: covering keeps only fully-contained constraints,
	// i.e. the single edge {2,3}.
	in := []bool{false, false, true, true}
	local := inst.LocalConstraints(in)
	if len(local) != 1 || local[0] != 3 {
		t.Fatalf("covering local constraints = %v", local)
	}
}

func TestObservation21(t *testing.T) {
	// Observation 2.1: for packing, a local solution on S extended by zeros
	// is globally feasible.
	inst := misInstance(t)
	in := []bool{false, false, true, true}
	s := inst.NewSolution()
	s[3] = true // local optimum on {2,3} avoiding the shared vertex 2
	local := inst.LocalConstraints(in)
	if ok, _ := inst.FeasibleOn(s, local); !ok {
		t.Fatal("local solution infeasible on local constraints")
	}
	if ok, _ := inst.Feasible(s); !ok {
		t.Fatal("Observation 2.1 violated: zero extension infeasible")
	}
}

func TestSolutionHelpers(t *testing.T) {
	inst := misInstance(t)
	s := inst.NewSolution()
	s[0] = true
	c := s.Clone()
	c[1] = true
	if s[1] {
		t.Fatal("clone aliases original")
	}
	if c.CountOnes() != 2 || s.CountOnes() != 1 {
		t.Fatal("CountOnes wrong")
	}
}

func TestDecomposeBounded(t *testing.T) {
	// One variable x in [0,5] with weight 2, constraint x <= 4 (packing:
	// maximize 2x). Bits: 3 (values up to 7). Optimal 0/1 solution should
	// encode x = 4.
	vars := []BoundedIntVar{{Weight: 2, Max: 5}}
	cons := []BoundedConstraint{{Terms: []BoundedTerm{{0, 1}}, B: 4}}
	inst, origin, err := DecomposeBounded(Packing, vars, cons)
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumVars() != 3 {
		t.Fatalf("bit count = %d, want 3", inst.NumVars())
	}
	if inst.Weight(0) != 2 || inst.Weight(1) != 4 || inst.Weight(2) != 8 {
		t.Fatalf("bit weights = %v %v %v", inst.Weight(0), inst.Weight(1), inst.Weight(2))
	}
	// Solution with bit 2 set encodes x = 4; feasible since 4 <= 4.
	s := inst.NewSolution()
	s[2] = true
	if ok, _ := inst.Feasible(s); !ok {
		t.Fatal("x=4 should be feasible")
	}
	// Adding bit 0 encodes x = 5 > 4: infeasible.
	s[0] = true
	if ok, _ := inst.Feasible(s); ok {
		t.Fatal("x=5 should violate")
	}
	s[0] = false
	vals := RecomposeBounded(1, origin, s)
	if vals[0] != 4 {
		t.Fatalf("recomposed x = %d", vals[0])
	}
}

func TestDecomposeBoundedZeroMax(t *testing.T) {
	vars := []BoundedIntVar{{Weight: 1, Max: 0}, {Weight: 1, Max: 1}}
	inst, origin, err := DecomposeBounded(Covering, vars, []BoundedConstraint{
		{Terms: []BoundedTerm{{1, 1}}, B: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumVars() != 1 {
		t.Fatalf("vars = %d, want 1 (Max=0 contributes no bits)", inst.NumVars())
	}
	s := inst.NewSolution()
	s[0] = true
	vals := RecomposeBounded(2, origin, s)
	if vals[0] != 0 || vals[1] != 1 {
		t.Fatalf("recomposed = %v", vals)
	}
}

func TestDecomposeBoundedErrors(t *testing.T) {
	if _, _, err := DecomposeBounded(Packing, []BoundedIntVar{{Weight: -1, Max: 1}}, nil); !errors.Is(err, ErrBadInstance) {
		t.Fatal("negative weight accepted")
	}
	if _, _, err := DecomposeBounded(Packing, []BoundedIntVar{{Weight: 1, Max: 1}},
		[]BoundedConstraint{{Terms: []BoundedTerm{{7, 1}}, B: 1}}); !errors.Is(err, ErrBadInstance) {
		t.Fatal("bad constraint variable accepted")
	}
}
