package packing

import (
	"context"
	"math"

	"repro/internal/ilp"
	"repro/internal/ldd"
	"repro/internal/local"
	"repro/internal/solve"
	"repro/internal/xrand"
)

// SolveAlternative implements the "Alternative Approach" to Theorem 1.2
// described at the end of Section 4 (credited there to an anonymous
// reviewer):
//
//  1. run T = O(ε⁻² log ñ) Elkin–Neiman decompositions in parallel and
//     compute the packing solution P_i induced by each (per-cluster local
//     optima, zeros on deleted vertices);
//  2. reweight every variable by w'(v) = w(v) · |{i : P_i(v) = 1}| — the
//     concentration of Σ w(P_i) around T(1−ε)·OPT makes w' a proxy for
//     membership in an optimal solution;
//  3. run the *weighted* low-diameter decomposition (ChangLiWeightedCtx) on
//     w', which deletes at most an ε fraction of the total proxy weight
//     w.h.p.;
//  4. solve each final cluster exactly and return the union P′; the
//     averaging argument gives w(P′) ≥ (1−O(ε))·OPT.
//
// TRuns overrides the number of parallel decompositions (zero = the
// theory's ⌈ε⁻² ln ñ⌉ capped at 64 for laptop practicality; the cap is
// reported via Result.Exact semantics as usual). The decompositions run on
// p.Workers workers, and a cancelled ctx stops the run with ctx.Err().
func SolveAlternative(ctx context.Context, inst *ilp.Instance, p Params, tRuns int) (*Result, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	g := inst.Primal()
	n := g.N()
	eps := p.Epsilon
	nTilde := p.NTilde
	if nTilde < n {
		nTilde = n
	}
	if tRuns <= 0 {
		tRuns = int(math.Ceil(math.Log(float64(nTilde)+3) / (eps * eps)))
		if tRuns > 64 {
			tRuns = 64
		}
	}
	if tRuns < 1 {
		tRuns = 1
	}
	rootRNG := xrand.New(p.Seed)
	ph := local.NewPhases(ctx)
	var scr solve.Scratch // the local solves run one at a time

	// Step 1+2: parallel decompositions and the membership-count weights.
	ph.Start("decompositions")
	wPrime, rounds, exact, err := proxyWeights(ctx, inst, p, eps, nTilde, tRuns, &scr)
	if err != nil {
		return nil, err
	}
	ph.Charge(rounds)

	// Step 3: weighted decomposition against the proxy weights; its own
	// phases nest inside this one in a trace.
	ph.Start("weighted-ldd")
	dec, err := ldd.ChangLiWeightedCtx(ctx, g, wPrime, ldd.Params{
		Epsilon: eps,
		NTilde:  nTilde,
		Seed:    rootRNG.Split(0xa1f).Uint64(),
		Scale:   p.Scale,
		Workers: p.Workers,
	})
	if err != nil {
		return nil, err
	}
	ph.Charge(dec.Rounds)

	// Step 4: per-cluster exact solves, zero extension.
	ph.Start("local-solves")
	solution := inst.NewSolution()
	comps := 0
	for _, cluster := range dec.Clusters() {
		if len(cluster) == 0 {
			continue
		}
		comps++
		sol, _, ex, err := solveLocal(ctx, inst, cluster, p.Solve, &scr)
		if err != nil {
			return nil, err
		}
		exact = exact && ex
		for v, set := range sol {
			if set {
				solution[v] = true
			}
		}
	}
	deleted := dec.UnclusteredCount()
	return &Result{
		Solution:      solution,
		Value:         inst.Value(solution),
		Rounds:        ph.Total(),
		Exact:         exact,
		Deleted:       deleted,
		NumComponents: comps,
	}, nil
}

// proxyWeights runs steps 1 and 2: tRuns Elkin–Neiman decompositions
// with λ = eps, each cluster's local packing solution adding its variables'
// weights to w'. It returns w', the largest round count of a run (the runs
// are parallel in LOCAL), and whether every local solve was exact. The
// decompositions run one at a time on one workspace, the solves on scr.
func proxyWeights(ctx context.Context, inst *ilp.Instance, p Params, eps float64, nTilde, tRuns int, scr *solve.Scratch) ([]int64, int, bool, error) {
	g := inst.Primal()
	var ws ldd.Workspace
	rootRNG := xrand.New(p.Seed)
	wPrime := make([]int64, g.N())
	rounds, exact := 0, true
	for run := 0; run < tRuns; run++ {
		en, err := ldd.ElkinNeimanCtx(ctx, g, nil, ldd.ENParams{
			Lambda:  eps,
			NTilde:  nTilde,
			Seed:    rootRNG.Split(uint64(run) + 0xa17).Uint64(),
			Workers: p.Workers,
		}, &ws)
		if err != nil {
			return nil, 0, false, err
		}
		rounds = max(rounds, en.Rounds)
		for _, cluster := range en.Clusters() {
			sol, _, ex, err := solveLocal(ctx, inst, cluster, p.Solve, scr)
			if err != nil {
				return nil, 0, false, err
			}
			exact = exact && ex
			for v, set := range sol {
				if set {
					wPrime[v] += inst.Weight(v)
				}
			}
		}
	}
	return wPrime, rounds, exact, nil
}
