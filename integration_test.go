package repro

// Cross-module integration tests: the registry (the path the server
// serves) end to end on a matrix of graph families, problems, and
// algorithms; property-based tests on the system-level invariants that
// individual package tests cannot see; and the parameter check every
// algorithm's entry point makes.

import (
	"context"
	"errors"
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/algo"
	"repro/internal/covering"
	"repro/internal/gkm"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ilp"
	"repro/internal/ldd"
	"repro/internal/netdecomp"
	"repro/internal/packing"
	"repro/internal/problems"
	"repro/internal/xrand"
)

// TestEndToEndMatrix runs every (problem, algorithm) pair on every oracle
// family through algo.Run and asserts feasibility plus the (1±ε) bound
// against the exact optimum whenever local solves were exact.
func TestEndToEndMatrix(t *testing.T) {
	const eps = 0.25
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle", gen.Cycle(140)},
		{"btree", gen.CompleteDAryTree(2, 6)},
		{"grid", gen.Grid(10, 12)},
	}
	for _, fam := range families {
		for _, name := range []string{"mis", "vc"} {
			prob := must(problems.ByName(name, 0))
			// The Chang–Li solver for the problem's kind, and the GKM
			// baseline at laptop-scale radii.
			changLi := "packing"
			if prob.Kind() == ilp.Covering {
				changLi = "covering"
			}
			for _, run := range []struct {
				algo string
				p    algo.Params
			}{
				{changLi, algo.Params{"problem": name, "eps": "0.25", "seed": "5", "prep": "2"}},
				{"gkm", algo.Params{"problem": name, "eps": "0.25", "seed": "5", "scale": "0.4"}},
			} {
				res, err := algo.Run(context.Background(), run.algo, fam.g, run.p)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", fam.name, name, run.algo, err)
				}
				if !res.Feasible || !problems.Verify(prob, fam.g, res.Solution) {
					t.Fatalf("%s/%s/%s: infeasible", fam.name, name, run.algo)
				}
				opt, err := problems.ExactOptimum(prob, fam.g)
				if err != nil || opt <= 0 || !res.Exact {
					continue
				}
				ratio := float64(res.Value) / float64(opt)
				if prob.Kind() == ilp.Packing && ratio < 1-eps-1e-9 {
					t.Fatalf("%s/%s/%s: ratio %.4f < 1-eps", fam.name, name, run.algo, ratio)
				}
				if prob.Kind() == ilp.Covering && ratio > 1+eps+1e-9 {
					t.Fatalf("%s/%s/%s: ratio %.4f > 1+eps", fam.name, name, run.algo, ratio)
				}
			}
		}
	}
}

// TestDecompositionPartitionProperty: for random graphs and parameters,
// every decomposer in the registry yields a valid partition — separation
// holds, cluster ids are dense, and weak diameters are finite.
func TestDecompositionPartitionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 40 + rng.Intn(120)
		g := gen.GNP(n, 3.0/float64(n), rng)
		eps := strconv.FormatFloat(0.1+0.4*rng.Float64(), 'g', -1, 64)
		s := strconv.FormatUint(seed, 10)
		for name, p := range map[string]algo.Params{
			"changli":  {"eps": eps, "seed": s, "scale": "0.05"},
			"en":       {"lambda": eps, "seed": s},
			"blackbox": {"eps": eps, "seed": s, "scale": "0.05"},
		} {
			res, err := algo.Run(context.Background(), name, g, p)
			if err != nil {
				return false
			}
			d := res.Raw.(*ldd.Decomposition)
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
		r, err := packing.SolveCtx(context.Background(), inst, packing.Params{Epsilon: 0.3, Seed: seed, PrepRuns: 2})
		if err != nil {
			return false
		}
		feasible, _ := inst.Feasible(r.Solution)
		return feasible && r.Value >= 0
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
		r, err := covering.SolveCtx(context.Background(), inst, covering.Params{Epsilon: 0.3, Seed: seed, PrepRuns: 2})
		if err != nil {
			return false
		}
		feasible, _ := inst.Feasible(r.Solution)
		return feasible
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
		r, err := packing.SolveCtx(context.Background(), inst, packing.Params{Epsilon: 0.25, Seed: seed, PrepRuns: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ok, j := inst.Feasible(r.Solution); !ok {
			t.Fatalf("seed %d: constraint %d violated", seed, j)
		}
	}
}

// TestRepairComposesWithSolvers: decompose-with-repair then verify every
// cluster meets the target diameter — the Theorem 1.1 "ideal bound" path.
func TestRepairComposesWithSolvers(t *testing.T) {
	g := gen.Cycle(900)
	res, err := algo.Run(context.Background(), "changli", g, algo.Params{"eps": "0.3", "seed": "2", "repair": "true"})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Raw.(*ldd.Decomposition)
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

// TestEntryPointsCheckParams: every algorithm's entry point rejects, before
// any work, an ε outside (0, 1], a λ that is not finite and > 0, and a NaN
// or infinite scale, and accepts the boundary values ε = 1 and scale = 0.
func TestEntryPointsCheckParams(t *testing.T) {
	ctx := context.Background()
	g := gen.Cycle(12)
	pack := must(problems.Build(problems.MIS, g, nil))
	cover := must(problems.Build(problems.MinVertexCover, g, nil))
	nan, inf := math.NaN(), math.Inf(1)
	epsRuns := map[string]func(eps, scale float64) error{
		"ldd.ChangLiCtx": func(eps, scale float64) error {
			_, err := ldd.ChangLiCtx(ctx, g, ldd.Params{Epsilon: eps, Scale: scale})
			return err
		},
		"ldd.ChangLiWeightedCtx": func(eps, scale float64) error {
			_, err := ldd.ChangLiWeightedCtx(ctx, g, make([]int64, g.N()), ldd.Params{Epsilon: eps, Scale: scale})
			return err
		},
		"ldd.BlackboxCtx": func(eps, scale float64) error {
			_, err := ldd.BlackboxCtx(ctx, g, ldd.BlackboxParams{Epsilon: eps, Scale: scale})
			return err
		},
		"packing.SolveCtx": func(eps, scale float64) error {
			_, err := packing.SolveCtx(ctx, pack, packing.Params{Epsilon: eps, Scale: scale, PrepRuns: 2})
			return err
		},
		"packing.SolveAlternative": func(eps, scale float64) error {
			_, err := packing.SolveAlternative(ctx, pack, packing.Params{Epsilon: eps, Scale: scale}, 2)
			return err
		},
		"covering.SolveCtx": func(eps, scale float64) error {
			_, err := covering.SolveCtx(ctx, cover, covering.Params{Epsilon: eps, Scale: scale, PrepRuns: 2})
			return err
		},
		"gkm.SolvePackingCtx": func(eps, scale float64) error {
			_, err := gkm.SolvePackingCtx(ctx, pack, gkm.Params{Epsilon: eps, Scale: scale})
			return err
		},
		"gkm.SolveCoveringCtx": func(eps, scale float64) error {
			_, err := gkm.SolveCoveringCtx(ctx, cover, gkm.Params{Epsilon: eps, Scale: scale})
			return err
		},
	}
	for name, run := range epsRuns {
		for _, eps := range []float64{0, -1, 1.5, nan, inf} {
			if err := run(eps, 0); !errors.Is(err, ldd.ErrBadParams) {
				t.Errorf("%s: eps %v: err %v, want ErrBadParams", name, eps, err)
			}
		}
		for _, scale := range []float64{nan, inf, -inf} {
			if err := run(0.5, scale); !errors.Is(err, ldd.ErrBadParams) {
				t.Errorf("%s: scale %v: err %v, want ErrBadParams", name, scale, err)
			}
		}
		if err := run(1, 0); err != nil {
			t.Errorf("%s: eps 1, scale 0: %v", name, err)
		}
	}

	lambdaRuns := map[string]func(lambda float64) error{
		"ldd.ElkinNeimanCtx": func(lambda float64) error {
			_, err := ldd.ElkinNeimanCtx(ctx, g, nil, ldd.ENParams{Lambda: lambda}, nil)
			return err
		},
		"ldd.MPXCtx": func(lambda float64) error {
			_, err := ldd.MPXCtx(ctx, g, ldd.ENParams{Lambda: lambda})
			return err
		},
		"ldd.SparseCoverCtx": func(lambda float64) error {
			_, err := ldd.SparseCoverCtx(ctx, g, nil, ldd.ENParams{Lambda: lambda}, nil)
			return err
		},
		"ldd.ElkinNeimanDistributed": func(lambda float64) error {
			_, _, err := ldd.ElkinNeimanDistributed(g, ldd.ENParams{Lambda: lambda}, true)
			return err
		},
		"ldd.MPXDistributed": func(lambda float64) error {
			_, _, err := ldd.MPXDistributed(g, ldd.ENParams{Lambda: lambda}, true)
			return err
		},
		"netdecomp.DecomposeCtx": func(lambda float64) error {
			_, err := netdecomp.DecomposeCtx(ctx, g, netdecomp.Params{Lambda: lambda})
			return err
		},
	}
	for name, run := range lambdaRuns {
		for _, lambda := range []float64{0, -1, nan, inf} {
			if lambda == 0 && name == "netdecomp.DecomposeCtx" {
				continue // documented: λ = 0 means 0.5
			}
			if err := run(lambda); !errors.Is(err, ldd.ErrBadParams) {
				t.Errorf("%s: lambda %v: err %v, want ErrBadParams", name, lambda, err)
			}
		}
		if err := run(0.5); err != nil {
			t.Errorf("%s: lambda 0.5: %v", name, err)
		}
	}
	if _, err := netdecomp.DecomposeCtx(ctx, g, netdecomp.Params{}); err != nil {
		t.Errorf("netdecomp.DecomposeCtx: lambda 0: %v", err)
	}
}
