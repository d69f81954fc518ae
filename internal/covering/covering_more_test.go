package covering

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ilp"
	"repro/internal/problems"
	"repro/internal/solve"
)

// multiCoverInstance builds a 2-cover dominating-set variant: every vertex
// must have at least 2 closed-neighborhood members selected. Exercises
// non-unit right-hand sides throughout the covering pipeline.
func multiCoverInstance(t testing.TB, g *graph.Graph) *ilp.Instance {
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
		b.AddConstraint(terms, 2)
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestMultiCoverFeasible(t *testing.T) {
	g := gen.Cycle(90)
	inst := multiCoverInstance(t, g)
	for seed := uint64(0); seed < 3; seed++ {
		r, err := SolveCtx(context.Background(), inst, Params{Epsilon: 0.3, Seed: seed, PrepRuns: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ok, j := inst.Feasible(r.Solution); !ok {
			t.Fatalf("seed %d: 2-cover violated at constraint %d", seed, j)
		}
		// gamma_2(C90): every closed neighborhood has 3 vertices and needs 2
		// selected -> at least 2n/3 vertices; at most n.
		if r.Value < 60 || r.Value > 90 {
			t.Fatalf("seed %d: implausible 2-cover size %d", seed, r.Value)
		}
	}
}

func TestMultiCoverWithCoefficients(t *testing.T) {
	// A vertex with coefficient 2 can satisfy a demand-2 constraint alone.
	b := ilp.NewBuilder(ilp.Covering, []int64{1, 5, 5})
	b.AddConstraint([]ilp.Term{{Var: 0, Coeff: 2}, {Var: 1, Coeff: 1}, {Var: 2, Coeff: 1}}, 2)
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveCtx(context.Background(), inst, Params{Epsilon: 0.2, Seed: 1, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := inst.Feasible(r.Solution); !ok {
		t.Fatal("infeasible")
	}
	if r.Value != 1 { // picking the cheap coefficient-2 vertex is optimal
		t.Fatalf("value = %d, want 1", r.Value)
	}
}

func TestDisconnectedCovering(t *testing.T) {
	b := graph.NewBuilder(40)
	for i := 0; i+1 < 20; i++ {
		b.AddEdge(i, i+1)
	}
	for i := 20; i+1 < 40; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Build()
	inst, err := problems.Build(problems.MinVertexCover, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveCtx(context.Background(), inst, Params{Epsilon: 0.25, Seed: 4, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !problems.Verify(problems.MinVertexCover, g, r.Solution) {
		t.Fatal("not a cover")
	}
	// Two P20s: MVC = 10 + 10.
	if r.Value > 25 {
		t.Fatalf("disconnected VC = %d", r.Value)
	}
}

func TestCoveringGreedyAblation(t *testing.T) {
	g := gen.Cycle(120)
	inst, err := problems.Build(problems.MinVertexCover, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Epsilon: 0.3, Seed: 5, PrepRuns: 2}
	p.Solve = solve.Options{ForceGreedy: true}
	r, err := SolveCtx(context.Background(), inst, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Exact {
		t.Fatal("greedy-only run claimed exact")
	}
	if !problems.Verify(problems.MinVertexCover, g, r.Solution) {
		t.Fatal("greedy cover invalid")
	}
}

func TestCoveringIsolatedVertices(t *testing.T) {
	// Isolated vertices with a self-covering demand (x_v >= 1).
	b := ilp.NewBuilder(ilp.Covering, []int64{1, 1, 1})
	b.AddConstraint([]ilp.Term{{Var: 0, Coeff: 1}}, 1)
	b.AddConstraint([]ilp.Term{{Var: 2, Coeff: 1}}, 1)
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveCtx(context.Background(), inst, Params{Epsilon: 0.3, Seed: 6, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Solution[0] || !r.Solution[2] {
		t.Fatal("forced singletons not taken")
	}
	if r.Solution[1] {
		t.Fatal("unconstrained variable taken")
	}
}

func TestCoveringSmallScaleLongCycleCarves(t *testing.T) {
	// Small scale on a long cycle: Phase-1 carving must actually fire and
	// fix some weight, and the result must stay within budget-ish bounds.
	g := gen.Cycle(1000)
	inst, err := problems.Build(problems.MinVertexCover, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveCtx(context.Background(), inst, Params{Epsilon: 0.3, Seed: 7, Scale: 0.0005, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !problems.Verify(problems.MinVertexCover, g, r.Solution) {
		t.Fatal("not a cover")
	}
	if r.FixedWeight == 0 {
		t.Log("warning: no carving fired at this scale (acceptable but unexpected)")
	}
	// Feasible cover of a cycle is at least n/2.
	if r.Value < 500 {
		t.Fatalf("impossible cover size %d", r.Value)
	}
}
