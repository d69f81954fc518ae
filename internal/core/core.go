// Package core is the public API of the repository: one-call entry points
// for the paper's two headline capabilities —
//
//   - low-diameter decomposition with a with-high-probability guarantee
//     (Theorem 1.1, plus the prior algorithms and the Section 1.6 boost for
//     comparison), via Decompose;
//   - (1±ε)-approximate packing and covering integer linear programs
//     (Theorems 1.2 and 1.3, plus the GKM17 baseline), via Solve and
//     SolveILP.
//
// Everything underneath (the LOCAL-model runtime, the decomposition
// algorithms, the local solvers) is reachable through the internal packages
// for advanced use; examples/ shows both levels.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/covering"
	"repro/internal/gkm"
	"repro/internal/graph"
	"repro/internal/ilp"
	"repro/internal/ldd"
	"repro/internal/packing"
	"repro/internal/problems"
	"repro/internal/solve"
)

// Decomposer selects a low-diameter decomposition algorithm.
type Decomposer int

const (
	// DecomposerChangLi is Theorem 1.1: the ε|V| unclustered bound holds
	// with probability 1 - 1/poly(n). The default.
	DecomposerChangLi Decomposer = iota + 1
	// DecomposerElkinNeiman is Lemma C.1: the bound holds in expectation
	// only (Appendix C exhibits failure families).
	DecomposerElkinNeiman
	// DecomposerBlackbox is the Section 1.6 boost: w.h.p. guarantee with a
	// log(1/ε) round factor instead of log³(1/ε).
	DecomposerBlackbox
)

// String implements fmt.Stringer.
func (d Decomposer) String() string {
	switch d {
	case DecomposerChangLi:
		return "chang-li"
	case DecomposerElkinNeiman:
		return "elkin-neiman"
	case DecomposerBlackbox:
		return "blackbox"
	default:
		return fmt.Sprintf("Decomposer(%d)", int(d))
	}
}

// DecomposeOptions configures Decompose.
type DecomposeOptions struct {
	// Epsilon bounds the unclustered fraction. Required (0 < ε <= 1).
	Epsilon float64
	// Algorithm selects the decomposer; zero means DecomposerChangLi.
	Algorithm Decomposer
	// Seed drives all randomness.
	Seed uint64
	// Scale trades round fidelity for laptop-scale radii (see
	// ldd.Params.Scale); zero means the paper's constants.
	Scale float64
	// NTilde is the known upper bound on n; zero means n.
	NTilde int
	// RepairDiameter post-processes clusters down to the ideal
	// O(log n / ε) strong-diameter bound (free in the LOCAL model).
	RepairDiameter bool
}

// ErrBadOptions is returned for invalid configuration.
var ErrBadOptions = errors.New("core: invalid options")

// Decompose computes an (ε, O(log n / ε)) low-diameter decomposition.
func Decompose(g *graph.Graph, opt DecomposeOptions) (*ldd.Decomposition, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadOptions)
	}
	if opt.Epsilon <= 0 || opt.Epsilon > 1 {
		return nil, fmt.Errorf("%w: epsilon %v outside (0, 1]", ErrBadOptions, opt.Epsilon)
	}
	algo := opt.Algorithm
	if algo == 0 {
		algo = DecomposerChangLi
	}
	ctx := context.Background()
	var d *ldd.Decomposition
	var err error
	switch algo {
	case DecomposerChangLi:
		d, err = ldd.ChangLiCtx(ctx, g, ldd.Params{
			Epsilon: opt.Epsilon, NTilde: opt.NTilde, Seed: opt.Seed, Scale: opt.Scale,
		})
	case DecomposerElkinNeiman:
		d, err = ldd.ElkinNeimanCtx(ctx, g, nil, ldd.ENParams{
			Lambda: opt.Epsilon, NTilde: opt.NTilde, Seed: opt.Seed,
		}, nil)
	case DecomposerBlackbox:
		d, err = ldd.BlackboxCtx(ctx, g, ldd.BlackboxParams{
			Epsilon: opt.Epsilon, NTilde: opt.NTilde, Seed: opt.Seed, Scale: opt.Scale,
		})
	default:
		return nil, fmt.Errorf("%w: unknown decomposer %d", ErrBadOptions, int(algo))
	}
	if err != nil || !opt.RepairDiameter {
		return d, err
	}
	return ldd.RepairDiameterCtx(ctx, g, d, opt.Epsilon, 0)
}

// Solver selects the ILP approximation algorithm.
type Solver int

const (
	// SolverChangLi is Theorems 1.2/1.3 (the paper's contribution). Default.
	SolverChangLi Solver = iota + 1
	// SolverGKM is the Ghaffari–Kuhn–Maus STOC 2017 baseline.
	SolverGKM
)

// String implements fmt.Stringer.
func (s Solver) String() string {
	switch s {
	case SolverChangLi:
		return "chang-li"
	case SolverGKM:
		return "gkm"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// Options configures Solve / SolveILP.
type Options struct {
	// Epsilon is the approximation parameter (0 < ε <= 1). Required.
	Epsilon float64
	// Algorithm selects the solver; zero means SolverChangLi.
	Algorithm Solver
	// Seed drives all randomness.
	Seed uint64
	// Scale trades fidelity for laptop-scale radii.
	Scale float64
	// NTilde is the known upper bound on max(n, total weight); zero = n.
	NTilde int
	// PrepRuns overrides the Θ(log ñ) preparation decompositions of the
	// Chang–Li solvers (zero = paper value); used to keep sweeps fast.
	PrepRuns int
	// LocalSolve tunes the per-cluster optimizers.
	LocalSolve solve.Options
}

// Report is the outcome of a solve.
type Report struct {
	// Solution is the 0/1 assignment (indexed by ILP variable).
	Solution ilp.Solution
	// Value is the objective value.
	Value int64
	// Rounds is the LOCAL round complexity charged.
	Rounds int
	// Feasible reports whether every constraint holds (always true unless
	// something is deeply wrong; surfaced for the harness's assertions).
	Feasible bool
	// Exact reports whether all local solves were exact, which is what the
	// (1±ε) guarantee is conditioned on at laptop scale.
	Exact bool
	// Optimum is the exact optimum when a poly-time oracle applied, else -1.
	Optimum int64
	// Ratio is Value/Optimum (packing) or Value/Optimum (covering) when
	// Optimum >= 0; else 0. For packing a ratio >= 1-ε certifies the run;
	// for covering a ratio <= 1+ε does.
	Ratio float64
	// Algorithm and Kind echo the configuration.
	Algorithm Solver
	Kind      ilp.Kind
}

// SolveILP approximates an arbitrary packing or covering ILP instance.
func SolveILP(inst *ilp.Instance, opt Options) (*Report, error) {
	if inst == nil {
		return nil, fmt.Errorf("%w: nil instance", ErrBadOptions)
	}
	if opt.Epsilon <= 0 || opt.Epsilon > 1 {
		return nil, fmt.Errorf("%w: epsilon %v outside (0, 1]", ErrBadOptions, opt.Epsilon)
	}
	algo := opt.Algorithm
	if algo == 0 {
		algo = SolverChangLi
	}
	rep := &Report{Algorithm: algo, Kind: inst.Kind(), Optimum: -1}
	ctx := context.Background()
	switch {
	case algo == SolverChangLi && inst.Kind() == ilp.Packing:
		r, err := packing.SolveCtx(ctx, inst, packing.Params{
			Epsilon: opt.Epsilon, NTilde: opt.NTilde, Seed: opt.Seed,
			Scale: opt.Scale, PrepRuns: opt.PrepRuns, Solve: opt.LocalSolve,
		})
		if err != nil {
			return nil, err
		}
		rep.Solution, rep.Value, rep.Rounds, rep.Exact = r.Solution, r.Value, r.Rounds, r.Exact
	case algo == SolverChangLi && inst.Kind() == ilp.Covering:
		r, err := covering.SolveCtx(ctx, inst, covering.Params{
			Epsilon: opt.Epsilon, NTilde: opt.NTilde, Seed: opt.Seed,
			Scale: opt.Scale, PrepRuns: opt.PrepRuns, Solve: opt.LocalSolve,
		})
		if err != nil {
			return nil, err
		}
		rep.Solution, rep.Value, rep.Rounds, rep.Exact = r.Solution, r.Value, r.Rounds, r.Exact
	case algo == SolverGKM:
		run := gkm.SolvePackingCtx
		if inst.Kind() == ilp.Covering {
			run = gkm.SolveCoveringCtx
		}
		r, err := run(ctx, inst, gkm.Params{
			Epsilon: opt.Epsilon, NTilde: opt.NTilde, Seed: opt.Seed,
			Scale: opt.Scale, Solve: opt.LocalSolve,
		})
		if err != nil {
			return nil, err
		}
		rep.Solution, rep.Value, rep.Rounds, rep.Exact = r.Solution, r.Value, r.Rounds, r.Exact
	default:
		return nil, fmt.Errorf("%w: unknown solver %d", ErrBadOptions, int(algo))
	}
	rep.Feasible, _ = inst.Feasible(rep.Solution)
	return rep, nil
}

// Solve builds the named problem on g and approximates it, attaching the
// exact-optimum ratio when a polynomial oracle applies to g.
func Solve(p problems.Problem, g *graph.Graph, opt Options) (*Report, error) {
	inst, err := problems.Build(p, g, nil)
	if err != nil {
		return nil, err
	}
	rep, err := SolveILP(inst, opt)
	if err != nil {
		return nil, err
	}
	if !problems.Verify(p, g, rep.Solution) {
		rep.Feasible = false
	}
	if optVal, err := problems.ExactOptimum(p, g); err == nil && optVal > 0 {
		rep.Optimum = optVal
		rep.Ratio = float64(rep.Value) / float64(optVal)
	}
	return rep, nil
}
