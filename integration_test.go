package repro

// Cross-module integration tests: the public API end to end on a matrix of
// graph families, problems, and algorithms; plus property-based tests on
// the system-level invariants that individual package tests cannot see.

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ilp"
	"repro/internal/ldd"
	"repro/internal/problems"
	"repro/internal/xrand"
)

// TestEndToEndMatrix runs every (problem, algorithm) pair on every oracle
// family and asserts feasibility plus the (1±ε) bound whenever local solves
// were exact.
func TestEndToEndMatrix(t *testing.T) {
	eps := 0.25
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", gen.Cycle(140)},
		{"btree", gen.CompleteDAryTree(2, 6)},
		{"grid", gen.Grid(10, 12)},
	}
	probs := []problems.Problem{problems.MIS, problems.MinVertexCover}
	algos := []core.Solver{core.SolverChangLi, core.SolverGKM}
	for _, fam := range families {
		for _, prob := range probs {
			for _, algo := range algos {
				opt := core.Options{Epsilon: eps, Algorithm: algo, Seed: 5, PrepRuns: 2}
				if algo == core.SolverGKM {
					opt.Scale = 0.4
				}
				rep, err := core.Solve(prob, fam.g, opt)
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", fam.name, prob, algo, err)
				}
				if !rep.Feasible {
					t.Fatalf("%s/%v/%v: infeasible", fam.name, prob, algo)
				}
				if rep.Optimum <= 0 {
					continue
				}
				switch rep.Kind {
				case ilp.Packing:
					if rep.Exact && rep.Ratio < 1-eps-1e-9 {
						t.Fatalf("%s/%v/%v: ratio %.4f < 1-eps", fam.name, prob, algo, rep.Ratio)
					}
				case ilp.Covering:
					if rep.Exact && rep.Ratio > 1+eps+1e-9 {
						t.Fatalf("%s/%v/%v: ratio %.4f > 1+eps", fam.name, prob, algo, rep.Ratio)
					}
				}
			}
		}
	}
}

// TestDecompositionPartitionProperty: for random graphs and parameters,
// every decomposer yields a valid partition — separation holds, cluster ids
// are dense, and weak diameters are finite.
func TestDecompositionPartitionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 40 + rng.Intn(120)
		g := gen.GNP(n, 3.0/float64(n), rng)
		eps := 0.1 + 0.4*rng.Float64()
		for _, algo := range []core.Decomposer{
			core.DecomposerChangLi, core.DecomposerElkinNeiman, core.DecomposerBlackbox,
		} {
			d, err := core.Decompose(g, core.DecomposeOptions{
				Epsilon: eps, Algorithm: algo, Seed: seed, Scale: 0.05,
			})
			if err != nil {
				return false
			}
			if ok, _, _ := d.ValidateSeparation(g); !ok {
				return false
			}
			for _, c := range d.ClusterOf {
				if c < -1 || int(c) >= d.NumClusters {
					return false
				}
			}
			if d.NumClusters > 0 && d.MaxWeakDiameter(g) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPackingFeasibilityProperty: on arbitrary random packing ILPs (not
// graph problems), the Theorem 1.2 solver always returns feasible
// solutions with nonnegative value.
func TestPackingFeasibilityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 10 + rng.Intn(40)
		w := make([]int64, n)
		for i := range w {
			w[i] = 1 + int64(rng.Intn(4))
		}
		b := ilp.NewBuilder(ilp.Packing, w)
		cons := 3 + rng.Intn(10)
		for j := 0; j < cons; j++ {
			var terms []ilp.Term
			for v := 0; v < n; v++ {
				if rng.Bernoulli(0.15) {
					terms = append(terms, ilp.Term{Var: v, Coeff: float64(1 + rng.Intn(2))})
				}
			}
			b.AddConstraint(terms, float64(rng.Intn(4)))
		}
		inst, err := b.Build()
		if err != nil {
			return false
		}
		rep, err := core.SolveILP(inst, core.Options{Epsilon: 0.3, Seed: seed, PrepRuns: 2})
		if err != nil {
			return false
		}
		return rep.Feasible && rep.Value >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCoveringFeasibilityProperty mirrors the packing property for random
// covering ILPs (built to be satisfiable).
func TestCoveringFeasibilityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 10 + rng.Intn(40)
		w := make([]int64, n)
		for i := range w {
			w[i] = 1 + int64(rng.Intn(4))
		}
		b := ilp.NewBuilder(ilp.Covering, w)
		cons := 3 + rng.Intn(10)
		for j := 0; j < cons; j++ {
			var terms []ilp.Term
			total := 0.0
			for v := 0; v < n; v++ {
				if rng.Bernoulli(0.2) {
					c := float64(1 + rng.Intn(2))
					terms = append(terms, ilp.Term{Var: v, Coeff: c})
					total += c
				}
			}
			if len(terms) == 0 {
				continue
			}
			b.AddConstraint(terms, float64(rng.Intn(int(total)+1)))
		}
		inst, err := b.Build()
		if err != nil {
			return false
		}
		rep, err := core.SolveILP(inst, core.Options{Epsilon: 0.3, Seed: seed, PrepRuns: 2})
		if err != nil {
			return false
		}
		return rep.Feasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSeedIndependenceOfStructure: different seeds change the solution but
// never the feasibility or the validity of the decomposition — failure
// injection by seed sweeping on the adversarial family.
func TestSeedIndependenceOfStructure(t *testing.T) {
	g := gen.CliquePlusPath(60, 60)
	inst, err := problems.Build(problems.MIS, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 8; seed++ {
		d := must(ldd.ChangLiCtx(context.Background(), g, ldd.Params{Epsilon: 0.2, Seed: seed}))
		if ok, u, v := d.ValidateSeparation(g); !ok {
			t.Fatalf("seed %d: separation broken at %d-%d", seed, u, v)
		}
		rep, err := core.SolveILP(inst, core.Options{Epsilon: 0.25, Seed: seed, PrepRuns: 2})
		if err != nil || !rep.Feasible {
			t.Fatalf("seed %d: %v feasible=%v", seed, err, rep != nil && rep.Feasible)
		}
	}
}

// TestRepairComposesWithSolvers: decompose-with-repair then verify every
// cluster meets the target diameter — the Theorem 1.1 "ideal bound" path.
func TestRepairComposesWithSolvers(t *testing.T) {
	g := gen.Cycle(900)
	d, err := core.Decompose(g, core.DecomposeOptions{
		Epsilon: 0.3, Seed: 2, RepairDiameter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := d.ValidateSeparation(g); !ok {
		t.Fatal("separation broken after repair")
	}
	if sd := d.MaxStrongDiameter(g); sd < 0 {
		t.Fatal("repaired clusters must be connected")
	}
	if d.UnclusteredFraction() > 0.3 {
		t.Fatalf("repair deleted too much: %.3f", d.UnclusteredFraction())
	}
}
