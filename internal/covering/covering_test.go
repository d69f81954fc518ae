package covering

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ilp"
	"repro/internal/problems"
)

func build(t testing.TB, p problems.Problem, g *graph.Graph) *ilp.Instance {
	t.Helper()
	inst, err := problems.Build(p, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestDeriveStructure(t *testing.T) {
	d := derive(100000, Params{Epsilon: 0.2})
	base := 7 // ceil(log2(1/0.2)) alone
	if d.t <= base {
		t.Fatalf("covering t = %d should include log log n term", d.t)
	}
	if len(d.intervals) != d.t {
		t.Fatalf("intervals = %d, want t", len(d.intervals))
	}
	for i, iv := range d.intervals {
		if iv[1]-iv[0]+1 != 2*d.r {
			t.Fatalf("interval %d length %d != 2R", i, iv[1]-iv[0]+1)
		}
		if i > 0 && iv[1] >= d.intervals[i-1][0] {
			t.Fatalf("intervals overlap at %d", i)
		}
	}
}

func TestVCOnEvenCycle(t *testing.T) {
	g := gen.Cycle(200)
	inst := build(t, problems.MinVertexCover, g)
	eps := 0.25
	opt, err := problems.ExactOptimum(problems.MinVertexCover, g)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 4; seed++ {
		r, err := SolveCtx(context.Background(), inst, Params{Epsilon: eps, Seed: seed, PrepRuns: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ok, j := inst.Feasible(r.Solution); !ok {
			t.Fatalf("seed %d: infeasible at %d", seed, j)
		}
		if !problems.Verify(problems.MinVertexCover, g, r.Solution) {
			t.Fatalf("seed %d: not a cover", seed)
		}
		if float64(r.Value) > (1+eps)*float64(opt) {
			t.Fatalf("seed %d: value %d > (1+eps)*opt (%d)", seed, r.Value, opt)
		}
		if r.Rounds <= 0 {
			t.Fatal("no rounds charged")
		}
	}
}

func TestVCOnTree(t *testing.T) {
	g := gen.CompleteDAryTree(2, 6) // 127 vertices
	inst := build(t, problems.MinVertexCover, g)
	eps := 0.25
	opt, _ := problems.ExactOptimum(problems.MinVertexCover, g)
	r, err := SolveCtx(context.Background(), inst, Params{Epsilon: eps, Seed: 3, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !problems.Verify(problems.MinVertexCover, g, r.Solution) {
		t.Fatal("not a cover")
	}
	if float64(r.Value) > (1+eps)*float64(opt) {
		t.Fatalf("value %d > (1+eps)*%d", r.Value, opt)
	}
}

func TestMDSOnTree(t *testing.T) {
	g := gen.CompleteDAryTree(3, 3) // 40 vertices
	inst := build(t, problems.MinDominatingSet, g)
	eps := 0.3
	opt, _ := problems.ExactOptimum(problems.MinDominatingSet, g)
	r, err := SolveCtx(context.Background(), inst, Params{Epsilon: eps, Seed: 4, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !problems.Verify(problems.MinDominatingSet, g, r.Solution) {
		t.Fatal("not dominating")
	}
	if float64(r.Value) > (1+eps)*float64(opt) {
		t.Fatalf("value %d > (1+eps)*%d", r.Value, opt)
	}
}

func TestMDSOnGrid(t *testing.T) {
	g := gen.Grid(7, 8)
	inst := build(t, problems.MinDominatingSet, g)
	r, err := SolveCtx(context.Background(), inst, Params{Epsilon: 0.3, Seed: 5, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !problems.Verify(problems.MinDominatingSet, g, r.Solution) {
		t.Fatal("not dominating")
	}
	// No exact oracle here; sanity-check against the trivial bounds:
	// gamma(G) >= n/(1+maxdeg) = 56/5, and the solution is at most n.
	if r.Value < 11 || r.Value > 56 {
		t.Fatalf("implausible MDS value %d", r.Value)
	}
}

func TestKDistanceDominatingSet(t *testing.T) {
	// The Definition 1.3 example: k-distance dominating set; constraints are
	// radius-k balls, so the primal graph is G^2k-ish and dense.
	g := gen.Cycle(80)
	inst, err := problems.BuildK(2, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveCtx(context.Background(), inst, Params{Epsilon: 0.3, Seed: 6, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !problems.VerifyK(problems.KDominatingSet, 2, g, r.Solution) {
		t.Fatal("not 2-dominating")
	}
	// gamma_2(C80) = 16; allow (1+eps) plus greedy slack.
	if r.Value > 26 {
		t.Fatalf("2-dominating value %d too large", r.Value)
	}
}

func TestSmallScaleStillFeasible(t *testing.T) {
	g := gen.Cycle(400)
	inst := build(t, problems.MinVertexCover, g)
	r, err := SolveCtx(context.Background(), inst, Params{Epsilon: 0.3, Seed: 7, Scale: 0.002, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ok, j := inst.Feasible(r.Solution); !ok {
		t.Fatalf("infeasible at %d", j)
	}
}

func TestDeterministic(t *testing.T) {
	g := gen.Cycle(100)
	inst := build(t, problems.MinVertexCover, g)
	p := Params{Epsilon: 0.3, Seed: 11, PrepRuns: 2}
	r1, err1 := SolveCtx(context.Background(), inst, p)
	r2, err2 := SolveCtx(context.Background(), inst, p)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Value != r2.Value || r1.Rounds != r2.Rounds {
		t.Fatal("nondeterministic")
	}
}

func TestWeightedCovering(t *testing.T) {
	// Star with cheap center: cover should prefer the center for MDS.
	g := gen.Star(20)
	w := make([]int64, 20)
	w[0] = 1
	for i := 1; i < 20; i++ {
		w[i] = 10
	}
	inst, err := problems.Build(problems.MinDominatingSet, g, w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveCtx(context.Background(), inst, Params{Epsilon: 0.2, Seed: 12, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !problems.Verify(problems.MinDominatingSet, g, r.Solution) {
		t.Fatal("not dominating")
	}
	if r.Value > 1 {
		t.Fatalf("weighted MDS = %d, want 1 (the center)", r.Value)
	}
}

func TestFixedWeightReported(t *testing.T) {
	g := gen.Cycle(400)
	inst := build(t, problems.MinVertexCover, g)
	r, err := SolveCtx(context.Background(), inst, Params{Epsilon: 0.3, Seed: 13, Scale: 0.002, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.FixedWeight < 0 || r.FixedWeight > r.Value {
		t.Fatalf("fixed weight %d outside [0, %d]", r.FixedWeight, r.Value)
	}
	if r.NumRegions < 1 {
		t.Fatal("no regions")
	}
}

func BenchmarkCoveringVCCycle200(b *testing.B) {
	g := gen.Cycle(200)
	inst := build(b, problems.MinVertexCover, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = SolveCtx(context.Background(), inst, Params{Epsilon: 0.25, Seed: uint64(i), PrepRuns: 2})
	}
}

// TestRepeatedVariableRow solves weights {5, 1} under x0 + x0 >= 1 and
// x0 + x1 >= 1. The first row is 2·x0 >= 1, not an edge: x0 must be 1.
func TestRepeatedVariableRow(t *testing.T) {
	b := ilp.NewBuilder(ilp.Covering, []int64{5, 1})
	b.AddConstraint([]ilp.Term{{Var: 0, Coeff: 1}, {Var: 0, Coeff: 1}}, 1)
	b.AddConstraint([]ilp.Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, 1)
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveCtx(context.Background(), inst, Params{Epsilon: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok, j := inst.Feasible(r.Solution); !ok || r.Value != 5 {
		t.Fatalf("solution %v value %d, feasible=%v (row %d)", r.Solution, r.Value, ok, j)
	}
}
