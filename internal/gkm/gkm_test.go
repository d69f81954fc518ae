package gkm

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

func TestPackingMISFeasibleAndGood(t *testing.T) {
	g := gen.Cycle(120)
	inst := misOn(t, g)
	eps := 0.25
	r := must(SolvePackingCtx(context.Background(), inst, Params{Epsilon: eps, Seed: 1, Scale: 0.4}))
	if ok, j := inst.Feasible(r.Solution); !ok {
		t.Fatalf("infeasible at constraint %d", j)
	}
	if !problems.Verify(problems.MIS, g, r.Solution) {
		t.Fatal("not an independent set")
	}
	opt, err := problems.ExactOptimum(problems.MIS, g)
	if err != nil {
		t.Fatal(err)
	}
	if float64(r.Value) < (1-eps)*float64(opt) {
		t.Fatalf("value %d < (1-eps)*opt (%d)", r.Value, opt)
	}
	if r.Rounds <= 0 || r.Colors < 1 || r.Horizon < 2 {
		t.Fatalf("bogus accounting: %+v", r)
	}
}

func TestPackingMISOnTree(t *testing.T) {
	g := gen.CompleteDAryTree(2, 6) // 127 vertices
	inst := misOn(t, g)
	eps := 0.2
	r := must(SolvePackingCtx(context.Background(), inst, Params{Epsilon: eps, Seed: 2, Scale: 0.5}))
	if !problems.Verify(problems.MIS, g, r.Solution) {
		t.Fatal("not independent")
	}
	opt, _ := problems.ExactOptimum(problems.MIS, g)
	if float64(r.Value) < (1-eps)*float64(opt) {
		t.Fatalf("tree MIS %d < (1-eps)*%d", r.Value, opt)
	}
}

func TestCoveringVCFeasibleAndGood(t *testing.T) {
	g := gen.Cycle(120)
	inst, err := problems.Build(problems.MinVertexCover, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.25
	r := must(SolveCoveringCtx(context.Background(), inst, Params{Epsilon: eps, Seed: 3, Scale: 0.4}))
	if ok, j := inst.Feasible(r.Solution); !ok {
		t.Fatalf("cover infeasible at %d", j)
	}
	if !problems.Verify(problems.MinVertexCover, g, r.Solution) {
		t.Fatal("not a vertex cover")
	}
	opt, _ := problems.ExactOptimum(problems.MinVertexCover, g)
	if float64(r.Value) > (1+eps)*float64(opt) {
		t.Fatalf("cover value %d > (1+eps)*opt (%d)", r.Value, opt)
	}
}

func TestCoveringMDSFeasible(t *testing.T) {
	g := gen.Grid(8, 10)
	inst, err := problems.Build(problems.MinDominatingSet, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := must(SolveCoveringCtx(context.Background(), inst, Params{Epsilon: 0.3, Seed: 4, Scale: 0.4}))
	if ok, j := inst.Feasible(r.Solution); !ok {
		t.Fatalf("dominating set infeasible at %d", j)
	}
	if !problems.Verify(problems.MinDominatingSet, g, r.Solution) {
		t.Fatal("not dominating")
	}
}

func TestDeterministic(t *testing.T) {
	g := gen.Cycle(60)
	inst := misOn(t, g)
	p := Params{Epsilon: 0.3, Seed: 7, Scale: 0.5}
	r1 := must(SolvePackingCtx(context.Background(), inst, p))
	r2 := must(SolvePackingCtx(context.Background(), inst, p))
	if r1.Value != r2.Value || r1.Rounds != r2.Rounds {
		t.Fatal("nondeterministic")
	}
	for v := range r1.Solution {
		if r1.Solution[v] != r2.Solution[v] {
			t.Fatal("solutions differ")
		}
	}
}

func TestHorizonScaling(t *testing.T) {
	pSmall := Params{Epsilon: 0.5}
	pBig := Params{Epsilon: 0.1}
	if pBig.horizon(1000) <= pSmall.horizon(1000) {
		t.Fatal("horizon should grow as epsilon shrinks")
	}
	if p := (Params{Epsilon: 0.2, Scale: 0.1}); p.horizon(1000) >= (Params{Epsilon: 0.2}).horizon(1000) {
		t.Fatal("scale should shrink the horizon")
	}
}

func TestPackingSeveralSeeds(t *testing.T) {
	g := gen.Path(80)
	inst := misOn(t, g)
	opt, _ := problems.ExactOptimum(problems.MIS, g)
	eps := 0.25
	for seed := uint64(0); seed < 5; seed++ {
		r := must(SolvePackingCtx(context.Background(), inst, Params{Epsilon: eps, Seed: seed, Scale: 0.5}))
		if !problems.Verify(problems.MIS, g, r.Solution) {
			t.Fatalf("seed %d: invalid", seed)
		}
		if float64(r.Value) < (1-eps)*float64(opt) {
			t.Fatalf("seed %d: %d < (1-eps)*%d", seed, r.Value, opt)
		}
	}
}

func BenchmarkGKMPackingCycle(b *testing.B) {
	g := gen.Cycle(100)
	inst := misOn(b, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = must(SolvePackingCtx(context.Background(), inst, Params{Epsilon: 0.3, Seed: uint64(i), Scale: 0.4}))
	}
}

// must returns v, panicking on err; the runs it wraps cannot be cancelled.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
