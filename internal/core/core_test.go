// Package core holds end-to-end checks of the paper's two headline
// capabilities, called through each algorithm's one entry point: the
// low-diameter decompositions (ldd) and the (1±ε) packing and covering
// solvers (packing, covering, gkm), scored against problems' exact optima.
// The package has no non-test code.
package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/covering"
	"repro/internal/gkm"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ilp"
	"repro/internal/ldd"
	"repro/internal/packing"
	"repro/internal/problems"
)

// solved is one solver run scored the way a caller would score it.
type solved struct {
	value    int64
	feasible bool
	optimum  int64 // -1 when no polynomial oracle applies
	ratio    float64
}

// score checks sol against the ILP and the graph problem, and attaches the
// exact-optimum ratio when problems has an oracle for g.
func score(t *testing.T, p problems.Problem, g *graph.Graph, inst *ilp.Instance, sol ilp.Solution, value int64) solved {
	t.Helper()
	s := solved{value: value, optimum: -1}
	s.feasible, _ = inst.Feasible(sol)
	s.feasible = s.feasible && problems.Verify(p, g, sol)
	if opt, err := problems.ExactOptimum(p, g); err == nil && opt > 0 {
		s.optimum = opt
		s.ratio = float64(value) / float64(opt)
	}
	return s
}

func build(t *testing.T, p problems.Problem, g *graph.Graph) *ilp.Instance {
	t.Helper()
	inst, err := problems.Build(p, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestDecomposeDefault(t *testing.T) {
	g := gen.Grid(15, 15)
	d, err := ldd.ChangLiCtx(context.Background(), g, ldd.Params{Epsilon: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok, u, v := d.ValidateSeparation(g); !ok {
		t.Fatalf("adjacent clusters %d-%d", u, v)
	}
	if d.UnclusteredFraction() > 0.25 {
		t.Fatalf("unclustered fraction %v", d.UnclusteredFraction())
	}
}

func TestDecomposeAlgorithms(t *testing.T) {
	ctx := context.Background()
	g := gen.Cycle(500)
	runs := map[string]func() (*ldd.Decomposition, error){
		"chang-li": func() (*ldd.Decomposition, error) {
			return ldd.ChangLiCtx(ctx, g, ldd.Params{Epsilon: 0.3, Seed: 2, Scale: 0.01})
		},
		"elkin-neiman": func() (*ldd.Decomposition, error) {
			return ldd.ElkinNeimanCtx(ctx, g, nil, ldd.ENParams{Lambda: 0.3, Seed: 2}, nil)
		},
		"blackbox": func() (*ldd.Decomposition, error) {
			return ldd.BlackboxCtx(ctx, g, ldd.BlackboxParams{Epsilon: 0.3, Seed: 2, Scale: 0.01})
		},
	}
	for name, run := range runs {
		d, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok, _, _ := d.ValidateSeparation(g); !ok {
			t.Fatalf("%s: separation violated", name)
		}
	}
}

func TestDecomposeRepair(t *testing.T) {
	ctx := context.Background()
	g := gen.Cycle(800)
	d, err := ldd.ChangLiCtx(ctx, g, ldd.Params{Epsilon: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err = ldd.RepairDiameterCtx(ctx, g, d, 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sd := d.MaxStrongDiameter(g); sd == -1 {
		t.Fatal("repaired cluster disconnected")
	}
}

// TestDecomposeValidation: the decomposition entry points reject ε = 0
// before any work. (They take a graph the caller owns and keep no nil-graph
// check; the full ε/λ/scale table is the root TestEntryPointsCheckParams.)
func TestDecomposeValidation(t *testing.T) {
	ctx := context.Background()
	g := gen.Path(5)
	if _, err := ldd.ChangLiCtx(ctx, g, ldd.Params{Epsilon: 0}); !errors.Is(err, ldd.ErrBadParams) {
		t.Fatal("chang-li: epsilon 0 accepted")
	}
	if _, err := ldd.BlackboxCtx(ctx, g, ldd.BlackboxParams{Epsilon: 0}); !errors.Is(err, ldd.ErrBadParams) {
		t.Fatal("blackbox: epsilon 0 accepted")
	}
	if _, err := ldd.ElkinNeimanCtx(ctx, g, nil, ldd.ENParams{Lambda: 0}, nil); !errors.Is(err, ldd.ErrBadParams) {
		t.Fatal("elkin-neiman: lambda 0 accepted")
	}
}

func TestSolveMISWithRatio(t *testing.T) {
	g := gen.Cycle(200)
	inst := build(t, problems.MIS, g)
	r, err := packing.SolveCtx(context.Background(), inst, packing.Params{Epsilon: 0.25, Seed: 4, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := score(t, problems.MIS, g, inst, r.Solution, r.Value)
	if !s.feasible {
		t.Fatal("infeasible")
	}
	if s.optimum != 100 {
		t.Fatalf("optimum = %d, want 100", s.optimum)
	}
	if s.ratio < 0.75 {
		t.Fatalf("ratio %v < 1-eps", s.ratio)
	}
	if inst.Kind() != ilp.Packing {
		t.Fatal("wrong kind")
	}
}

func TestSolveCoveringWithRatio(t *testing.T) {
	g := gen.Cycle(200)
	inst := build(t, problems.MinVertexCover, g)
	r, err := covering.SolveCtx(context.Background(), inst, covering.Params{Epsilon: 0.25, Seed: 5, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := score(t, problems.MinVertexCover, g, inst, r.Solution, r.Value)
	if !s.feasible {
		t.Fatal("infeasible")
	}
	if s.optimum <= 0 {
		t.Fatal("no exact optimum for a cycle's vertex cover")
	}
	if s.ratio > 1.25 {
		t.Fatalf("ratio %v > 1+eps", s.ratio)
	}
	if inst.Kind() != ilp.Covering {
		t.Fatal("wrong kind")
	}
}

func TestSolveGKM(t *testing.T) {
	g := gen.Cycle(100)
	inst := build(t, problems.MIS, g)
	r, err := gkm.SolvePackingCtx(context.Background(), inst, gkm.Params{Epsilon: 0.3, Seed: 6, Scale: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	s := score(t, problems.MIS, g, inst, r.Solution, r.Value)
	if !s.feasible {
		t.Fatalf("GKM solution infeasible: %+v", s)
	}
	if s.ratio < 0.7 {
		t.Fatalf("GKM ratio %v", s.ratio)
	}
}

func TestSolveNoOracle(t *testing.T) {
	// Odd cycle MDS: no exact oracle, so no ratio can be attached.
	g := gen.Cycle(51)
	inst := build(t, problems.MinDominatingSet, g)
	r, err := covering.SolveCtx(context.Background(), inst, covering.Params{Epsilon: 0.3, Seed: 7, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := score(t, problems.MinDominatingSet, g, inst, r.Solution, r.Value)
	if !s.feasible {
		t.Fatal("infeasible")
	}
	if s.optimum != -1 || s.ratio != 0 {
		t.Fatalf("oracle fields: opt=%d ratio=%v", s.optimum, s.ratio)
	}
}

// TestSolveILPValidation: every solver entry point rejects a bad ε before
// any work. (They keep no nil-instance check; the full table is the root
// TestEntryPointsCheckParams.)
func TestSolveILPValidation(t *testing.T) {
	ctx := context.Background()
	g := gen.Path(4)
	pack := build(t, problems.MIS, g)
	cover := build(t, problems.MinVertexCover, g)
	if _, err := packing.SolveCtx(ctx, pack, packing.Params{Epsilon: -1}); !errors.Is(err, ldd.ErrBadParams) {
		t.Fatal("packing: bad epsilon accepted")
	}
	if _, err := covering.SolveCtx(ctx, cover, covering.Params{Epsilon: -1}); !errors.Is(err, ldd.ErrBadParams) {
		t.Fatal("covering: bad epsilon accepted")
	}
	if _, err := gkm.SolvePackingCtx(ctx, pack, gkm.Params{Epsilon: -1}); !errors.Is(err, ldd.ErrBadParams) {
		t.Fatal("gkm packing: bad epsilon accepted")
	}
	if _, err := gkm.SolveCoveringCtx(ctx, cover, gkm.Params{Epsilon: -1}); !errors.Is(err, ldd.ErrBadParams) {
		t.Fatal("gkm covering: bad epsilon accepted")
	}
}

func TestSolveILPDirect(t *testing.T) {
	// A general (non-graph-problem) packing ILP through the entry point.
	b := ilp.NewBuilder(ilp.Packing, []int64{3, 2, 2})
	b.AddConstraint([]ilp.Term{{Var: 0, Coeff: 2}, {Var: 1, Coeff: 1}, {Var: 2, Coeff: 1}}, 3)
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := packing.SolveCtx(context.Background(), inst, packing.Params{Epsilon: 0.2, Seed: 8, PrepRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := inst.Feasible(r.Solution); !ok {
		t.Fatal("infeasible")
	}
	// OPT = 5 (vars 0 and 1, or 0 and 2); one cluster covers everything, so
	// the exact local solve should find it.
	if r.Value < 4 {
		t.Fatalf("value = %d", r.Value)
	}
}
