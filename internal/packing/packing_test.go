package packing

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ilp"
	"repro/internal/problems"
)

func misOn(t testing.TB, g *graph.Graph) *ilp.Instance {
	t.Helper()
	inst, err := problems.Build(problems.MIS, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestDeriveStructure(t *testing.T) {
	d := derive(1000, Params{Epsilon: 0.2})
	if d.t != 7 {
		t.Fatalf("t = %d", d.t)
	}
	if len(d.intervals) != d.t+1 {
		t.Fatalf("intervals = %d", len(d.intervals))
	}
	for i, iv := range d.intervals {
		if iv[0]%3 != 1 {
			t.Fatalf("interval %d start %d not ≡ 1 (mod 3)", i, iv[0])
		}
		if (iv[1]-iv[0]+1)%3 != 0 {
			t.Fatalf("interval %d length not multiple of 3", i)
		}
		if i > 0 && iv[1] >= d.intervals[i-1][0] {
			t.Fatalf("intervals overlap at %d", i)
		}
	}
	if d.prepRuns < 16 {
		t.Fatalf("default prep runs = %d", d.prepRuns)
	}
}

func TestMISOnEvenCycle(t *testing.T) {
	g := gen.Cycle(200)
	inst := misOn(t, g)
	eps := 0.25
	opt, err := problems.ExactOptimum(problems.MIS, g)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 5; seed++ {
		r := must(SolveCtx(context.Background(), inst, Params{Epsilon: eps, Seed: seed, PrepRuns: 3}))
		if ok, j := inst.Feasible(r.Solution); !ok {
			t.Fatalf("seed %d: infeasible at %d", seed, j)
		}
		if !problems.Verify(problems.MIS, g, r.Solution) {
			t.Fatalf("seed %d: not independent", seed)
		}
		if float64(r.Value) < (1-eps)*float64(opt) {
			t.Fatalf("seed %d: value %d < (1-eps)*opt (%d)", seed, r.Value, opt)
		}
		if r.Rounds <= 0 {
			t.Fatal("no rounds charged")
		}
	}
}

func TestMISOnTree(t *testing.T) {
	g := gen.CompleteDAryTree(3, 4) // 121 vertices
	inst := misOn(t, g)
	eps := 0.2
	opt, _ := problems.ExactOptimum(problems.MIS, g)
	r := must(SolveCtx(context.Background(), inst, Params{Epsilon: eps, Seed: 2, PrepRuns: 3}))
	if !problems.Verify(problems.MIS, g, r.Solution) {
		t.Fatal("not independent")
	}
	if float64(r.Value) < (1-eps)*float64(opt) {
		t.Fatalf("value %d < (1-eps)*%d", r.Value, opt)
	}
}

func TestMISOnGrid(t *testing.T) {
	g := gen.Grid(12, 15)
	inst := misOn(t, g)
	eps := 0.25
	opt, _ := problems.ExactOptimum(problems.MIS, g) // bipartite exact
	r := must(SolveCtx(context.Background(), inst, Params{Epsilon: eps, Seed: 4, PrepRuns: 3}))
	if !problems.Verify(problems.MIS, g, r.Solution) {
		t.Fatal("not independent")
	}
	if float64(r.Value) < (1-eps)*float64(opt) {
		t.Fatalf("value %d < (1-eps)*%d", r.Value, opt)
	}
}

func TestMISSmallScaleStillFeasible(t *testing.T) {
	// With a tiny radius scale the carving is exercised for real; the
	// (1-eps) bound may degrade but feasibility and separation must hold.
	g := gen.Cycle(600)
	inst := misOn(t, g)
	r := must(SolveCtx(context.Background(), inst, Params{Epsilon: 0.3, Seed: 5, Scale: 0.002, PrepRuns: 2}))
	if ok, j := inst.Feasible(r.Solution); !ok {
		t.Fatalf("infeasible at %d", j)
	}
	if !problems.Verify(problems.MIS, g, r.Solution) {
		t.Fatal("not independent")
	}
	if r.Value == 0 {
		t.Fatal("empty solution")
	}
}

func TestMaxMatchingAsPacking(t *testing.T) {
	// Matching ILP: variables are edges; the primal graph is the line graph.
	g := gen.Path(60)
	inst, err := problems.Build(problems.MaxMatching, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.25
	opt, _ := problems.ExactOptimum(problems.MaxMatching, g)
	r := must(SolveCtx(context.Background(), inst, Params{Epsilon: eps, Seed: 6, PrepRuns: 3}))
	if !problems.Verify(problems.MaxMatching, g, r.Solution) {
		t.Fatal("not a matching")
	}
	if float64(r.Value) < (1-eps)*float64(opt) {
		t.Fatalf("matching %d < (1-eps)*%d", r.Value, opt)
	}
}

func TestWeightedMIS(t *testing.T) {
	// Star with heavy center: optimum takes the center.
	g := gen.Star(30)
	w := make([]int64, 30)
	w[0] = 100
	for i := 1; i < 30; i++ {
		w[i] = 1
	}
	inst, err := problems.Build(problems.MIS, g, w)
	if err != nil {
		t.Fatal(err)
	}
	r := must(SolveCtx(context.Background(), inst, Params{Epsilon: 0.2, Seed: 7, PrepRuns: 3}))
	if r.Value < 80 { // (1-eps) * 100
		t.Fatalf("weighted value = %d", r.Value)
	}
	if !problems.Verify(problems.MIS, g, r.Solution) {
		t.Fatal("not independent")
	}
}

func TestDeterministic(t *testing.T) {
	g := gen.Cycle(100)
	inst := misOn(t, g)
	p := Params{Epsilon: 0.3, Seed: 11, PrepRuns: 2}
	r1 := must(SolveCtx(context.Background(), inst, p))
	r2 := must(SolveCtx(context.Background(), inst, p))
	if r1.Value != r2.Value || r1.Rounds != r2.Rounds {
		t.Fatal("nondeterministic")
	}
}

func TestDisconnectedGraph(t *testing.T) {
	b := graph.NewBuilder(20)
	for i := 0; i+1 < 10; i++ {
		b.AddEdge(i, i+1)
	}
	for i := 10; i+1 < 20; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Build()
	inst := misOn(t, g)
	r := must(SolveCtx(context.Background(), inst, Params{Epsilon: 0.25, Seed: 8, PrepRuns: 2}))
	if !problems.Verify(problems.MIS, g, r.Solution) {
		t.Fatal("not independent")
	}
	// Two P10s: MIS = 5 + 5 = 10.
	if r.Value < 8 {
		t.Fatalf("disconnected MIS = %d", r.Value)
	}
}

func TestExactFlagHonest(t *testing.T) {
	// Force greedy everywhere: Exact must be false.
	g := gen.Cycle(60)
	inst := misOn(t, g)
	p := Params{Epsilon: 0.3, Seed: 9, PrepRuns: 2}
	p.Solve.ForceGreedy = true
	r := must(SolveCtx(context.Background(), inst, p))
	if r.Exact {
		t.Fatal("greedy-only run claimed exact")
	}
	if !problems.Verify(problems.MIS, g, r.Solution) {
		t.Fatal("greedy run produced invalid set")
	}
}

func BenchmarkPackingMISCycle200(b *testing.B) {
	g := gen.Cycle(200)
	inst := misOn(b, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(SolveCtx(context.Background(), inst, Params{Epsilon: 0.25, Seed: uint64(i), PrepRuns: 2}))
	}
}

// TestRepeatedVariableRow solves weights {5, 1} under x0 + x0 <= 1 and
// x0 + x1 <= 1. The first row is 2·x0 <= 1, not an edge: x0 must stay 0.
func TestRepeatedVariableRow(t *testing.T) {
	b := ilp.NewBuilder(ilp.Packing, []int64{5, 1})
	b.AddConstraint([]ilp.Term{{Var: 0, Coeff: 1}, {Var: 0, Coeff: 1}}, 1)
	b.AddConstraint([]ilp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, 1)
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := must(SolveCtx(context.Background(), inst, Params{Epsilon: 0.25, Seed: 1}))
	if ok, j := inst.Feasible(r.Solution); !ok || r.Value != 1 {
		t.Fatalf("solution %v value %d, feasible=%v (row %d)", r.Solution, r.Value, ok, j)
	}
}

// must returns v, panicking on err; the runs it wraps cannot be cancelled.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
