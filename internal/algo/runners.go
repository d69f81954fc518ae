package algo

import (
	"context"
	"fmt"

	"repro/internal/covering"
	"repro/internal/gkm"
	"repro/internal/graph"
	"repro/internal/ilp"
	"repro/internal/ldd"
	"repro/internal/netdecomp"
	"repro/internal/packing"
	"repro/internal/problems"
	"repro/internal/solve"
	"repro/internal/xrand"
)

// weightLabel salts the synthetic vertex-weight stream of the weighted
// decomposition runner.
const weightLabel = 0x3e11

func init() {
	registerDecompositions()
	registerILPs()
}

// --- Decomposition families -----------------------------------------------

func registerDecompositions() {
	Register(&Spec{
		Name:    "changli",
		Aliases: []string{"chang-li"},
		Summary: "Theorem 1.1 low-diameter decomposition (whp ε-bound)",
		Caps:    Capabilities{Kind: KindDecomposition, Seeded: true, Workers: true},
		Defs: []ParamDef{
			{Key: "eps", Kind: Float, Default: "0.3", Doc: "unclustered-fraction bound"},
			{Key: "ntilde", Kind: Int, Default: "0", Doc: "known upper bound ñ >= n (0 = n)"},
			{Key: "seed", Kind: Uint, Default: "1", Doc: "random seed"},
			{Key: "scale", Kind: Float, Default: "0", Doc: "radius scale (0 = paper constants)"},
			{Key: "skip2", Kind: Bool, Default: "false", Doc: "extend Phase 1 instead of running Phase 2"},
			{Key: "repair", Kind: Bool, Default: "false", Doc: "repair cluster diameters to the ideal bound"},
			{Key: "workers", Kind: Int, Default: "0", Doc: "worker pool bound (0 = GOMAXPROCS)", NoCache: true},
		},
		Run: func(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
			d := decoder{p: p}
			lp := lddParams(&d)
			repair := d.bool("repair", false)
			if d.err != nil {
				return nil, d.err
			}
			dec, err := ldd.ChangLiCtx(ctx, g, lp)
			if err != nil {
				return nil, err
			}
			return decompositionResult(ctx, g, dec, lp.Epsilon, repair)
		},
		Repair: func(ctx context.Context, gv graph.View, old *Result, p Params, delta ldd.EdgeDelta) (*Result, error) {
			d := decoder{p: p}
			lp := lddParams(&d)
			if d.err != nil {
				return nil, d.err
			}
			return repairDecompositionResult(ctx, gv, old, delta, lp)
		},
	})

	Register(&Spec{
		Name:    "weighted",
		Aliases: []string{"changli-weighted"},
		Summary: "weighted Theorem 1.1 variant (deleted weight <= ε·Σw)",
		Caps:    Capabilities{Kind: KindDecomposition, Seeded: true, Weighted: true, Workers: true},
		Defs: []ParamDef{
			{Key: "eps", Kind: Float, Default: "0.3", Doc: "deleted-weight fraction bound"},
			{Key: "ntilde", Kind: Int, Default: "0", Doc: "known upper bound ñ >= n (0 = n)"},
			{Key: "seed", Kind: Uint, Default: "1", Doc: "random seed"},
			{Key: "scale", Kind: Float, Default: "0", Doc: "radius scale (0 = paper constants)"},
			{Key: "skip2", Kind: Bool, Default: "false", Doc: "extend Phase 1 instead of running Phase 2"},
			{Key: "wseed", Kind: Uint, Default: "1", Doc: "synthetic vertex-weight seed"},
			{Key: "wmax", Kind: Int, Default: "8", Doc: "synthetic weights drawn uniformly from [1, wmax]"},
			{Key: "repair", Kind: Bool, Default: "false", Doc: "repair cluster diameters to the ideal bound"},
			{Key: "workers", Kind: Int, Default: "0", Doc: "worker pool bound (0 = GOMAXPROCS)", NoCache: true},
		},
		Run: func(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
			d := decoder{p: p}
			lp := lddParams(&d)
			wseed := d.uint("wseed", 1)
			wmax := d.int("wmax", 8)
			repair := d.bool("repair", false)
			if d.err != nil {
				return nil, d.err
			}
			if wmax < 1 {
				return nil, fmt.Errorf("algo weighted: wmax must be >= 1, got %d", wmax)
			}
			w := SyntheticWeights(g.N(), wseed, wmax)
			dec, err := ldd.ChangLiWeightedCtx(ctx, g, w, lp)
			if err != nil {
				return nil, err
			}
			res, err := decompositionResult(ctx, g, dec, lp.Epsilon, repair)
			if err != nil {
				return nil, err
			}
			var total int64
			for _, x := range w {
				total += x
			}
			if total > 0 {
				res.metric("deleted_weight_frac", float64(dec.DeletedWeight(w))/float64(total))
			}
			return res, nil
		},
	})

	Register(&Spec{
		Name:    "en",
		Aliases: []string{"elkin-neiman"},
		Summary: "Elkin–Neiman exponential-shift LDD (Lemma C.1, expectation-only)",
		Caps:    Capabilities{Kind: KindDecomposition, Seeded: true, Workers: true},
		Defs: []ParamDef{
			{Key: "lambda", Kind: Float, Default: "0.3", Doc: "deletion-rate parameter"},
			{Key: "ntilde", Kind: Int, Default: "0", Doc: "known upper bound ñ >= n (0 = n)"},
			{Key: "seed", Kind: Uint, Default: "1", Doc: "random seed"},
			{Key: "repair", Kind: Bool, Default: "false", Doc: "repair cluster diameters to the ideal bound"},
			{Key: "workers", Kind: Int, Default: "0", Doc: "worker pool bound (0 = GOMAXPROCS)", NoCache: true},
		},
		Run: func(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
			d := decoder{p: p}
			ep := enParams(&d, 0.3)
			repair := d.bool("repair", false)
			if d.err != nil {
				return nil, d.err
			}
			dec, err := ldd.ElkinNeimanCtx(ctx, g, nil, ep)
			if err != nil {
				return nil, err
			}
			return decompositionResult(ctx, g, dec, ep.Lambda, repair)
		},
	})

	Register(&Spec{
		Name:    "blackbox",
		Summary: "Section 1.6 boost: log(1/ε) round factor over any whp base",
		Caps:    Capabilities{Kind: KindDecomposition, Seeded: true},
		Defs: []ParamDef{
			{Key: "eps", Kind: Float, Default: "0.3", Doc: "unclustered-fraction bound"},
			{Key: "ntilde", Kind: Int, Default: "0", Doc: "known upper bound ñ >= n (0 = n)"},
			{Key: "seed", Kind: Uint, Default: "1", Doc: "random seed"},
			{Key: "scale", Kind: Float, Default: "0", Doc: "radius scale of the inner base runs"},
			{Key: "enbase", Kind: Bool, Default: "false", Doc: "swap the whp base for plain Elkin–Neiman"},
			{Key: "repair", Kind: Bool, Default: "false", Doc: "repair cluster diameters to the ideal bound"},
		},
		Run: func(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
			d := decoder{p: p}
			bp := ldd.BlackboxParams{
				Epsilon:            d.float("eps", 0.3),
				NTilde:             d.int("ntilde", 0),
				Seed:               d.uint("seed", 1),
				Scale:              d.float("scale", 0),
				UseElkinNeimanBase: d.bool("enbase", false),
			}
			repair := d.bool("repair", false)
			if d.err != nil {
				return nil, d.err
			}
			dec, err := ldd.BlackboxCtx(ctx, g, bp)
			if err != nil {
				return nil, err
			}
			return decompositionResult(ctx, g, dec, bp.Epsilon, repair)
		},
	})

	Register(&Spec{
		Name:    "mpx",
		Summary: "Miller–Peng–Xu edge decomposition (Claim C.2 variant)",
		Caps:    Capabilities{Kind: KindEdgeCut, Seeded: true},
		Defs: []ParamDef{
			{Key: "lambda", Kind: Float, Default: "0.3", Doc: "shift parameter (expected cut fraction)"},
			{Key: "ntilde", Kind: Int, Default: "0", Doc: "known upper bound ñ >= n (0 = n)"},
			{Key: "seed", Kind: Uint, Default: "1", Doc: "random seed"},
		},
		Run: func(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
			d := decoder{p: p}
			ep := enParams(&d, 0.3)
			if d.err != nil {
				return nil, d.err
			}
			r, err := ldd.MPXCtx(ctx, g, ep)
			if err != nil {
				return nil, err
			}
			res := &Result{
				ClusterOf:   r.ClusterOf,
				NumClusters: r.NumClusters,
				Rounds:      r.Rounds,
				Raw:         r,
			}
			res.metric("cut_edges", float64(len(r.CutEdges)))
			if m := g.M(); m > 0 {
				res.metric("cut_frac", float64(len(r.CutEdges))/float64(m))
			}
			return res, nil
		},
	})

	Register(&Spec{
		Name:    "sparsecover",
		Aliases: []string{"cover"},
		Summary: "Lemma C.2 sparse cover (hyperedge-preserving, geometric multiplicity)",
		Caps:    Capabilities{Kind: KindCover, Seeded: true, Workers: true},
		Defs: []ParamDef{
			{Key: "lambda", Kind: Float, Default: "0.5", Doc: "shift parameter (diameter 8 ln ñ / λ)"},
			{Key: "ntilde", Kind: Int, Default: "0", Doc: "known upper bound ñ >= n (0 = n)"},
			{Key: "seed", Kind: Uint, Default: "1", Doc: "random seed"},
			{Key: "workers", Kind: Int, Default: "0", Doc: "worker pool bound (0 = GOMAXPROCS)", NoCache: true},
		},
		Run: func(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
			d := decoder{p: p}
			ep := enParams(&d, 0.5)
			if d.err != nil {
				return nil, d.err
			}
			c, err := ldd.SparseCoverCtx(ctx, g, nil, ep)
			if err != nil {
				return nil, err
			}
			res := &Result{
				Clusters:    c.Clusters,
				NumClusters: len(c.Clusters),
				Rounds:      c.Rounds,
				Raw:         c,
			}
			res.metric("max_multiplicity", float64(c.MaxMultiplicity()))
			res.metric("mean_multiplicity", c.MeanMultiplicity())
			return res, nil
		},
		Repair: func(ctx context.Context, gv graph.View, old *Result, p Params, delta ldd.EdgeDelta) (*Result, error) {
			d := decoder{p: p}
			ep := enParams(&d, 0.5)
			if d.err != nil {
				return nil, d.err
			}
			c, ok := old.Raw.(*ldd.Cover)
			if !ok || c == nil {
				return nil, fmt.Errorf("%w: cached result carries no cover", ldd.ErrRepairFallback)
			}
			out, rep, err := ldd.RepairCoverDelta(ctx, gv, c, delta, ldd.RepairCoverParams{
				WeakBound: ep.WeakDiameterBound(gv.N()),
				Workers:   ep.Workers,
			})
			if err != nil {
				return nil, err
			}
			res := &Result{
				Clusters:    out.Clusters,
				NumClusters: len(out.Clusters),
				Rounds:      out.Rounds,
				Raw:         out,
			}
			res.metric("max_multiplicity", float64(out.MaxMultiplicity()))
			res.metric("mean_multiplicity", out.MeanMultiplicity())
			stampRepairMetrics(res, old, rep.NewClusters, rep.Certified)
			return res, nil
		},
	})

	Register(&Spec{
		Name:    "netdecomp",
		Aliases: []string{"net"},
		Summary: "Linial–Saks style colored network decomposition (GKM substrate)",
		Caps:    Capabilities{Kind: KindColoring, Seeded: true, Workers: true},
		Defs: []ParamDef{
			{Key: "lambda", Kind: Float, Default: "0.5", Doc: "per-phase Elkin–Neiman parameter"},
			{Key: "ntilde", Kind: Int, Default: "0", Doc: "known upper bound ñ >= n (0 = n)"},
			{Key: "seed", Kind: Uint, Default: "1", Doc: "random seed"},
			{Key: "workers", Kind: Int, Default: "0", Doc: "worker pool bound (0 = GOMAXPROCS)", NoCache: true},
		},
		Run: func(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
			d := decoder{p: p}
			np := netdecomp.Params{
				Lambda:  d.float("lambda", 0.5),
				NTilde:  d.int("ntilde", 0),
				Seed:    d.uint("seed", 1),
				Workers: d.int("workers", 0),
			}
			if d.err != nil {
				return nil, d.err
			}
			dec, err := netdecomp.DecomposeCtx(ctx, g, np)
			if err != nil {
				return nil, err
			}
			return &Result{
				ClusterOf:   dec.ClusterOf,
				ColorOf:     dec.ColorOf,
				NumClusters: dec.NumClusters,
				NumColors:   dec.NumColors,
				Rounds:      dec.Rounds,
				Raw:         dec,
			}, nil
		},
	})
}

// lddParams decodes the Theorem 1.1 parameters shared by the changli and
// weighted families.
func lddParams(d *decoder) ldd.Params {
	return ldd.Params{
		Epsilon:    d.float("eps", 0.3),
		NTilde:     d.int("ntilde", 0),
		Seed:       d.uint("seed", 1),
		Scale:      d.float("scale", 0),
		SkipPhase2: d.bool("skip2", false),
		Workers:    d.int("workers", 0),
	}
}

// enParams decodes the exponential-shift parameters shared by the en, mpx
// and sparsecover families (mpx declares no workers, so its Workers stays
// 0).
func enParams(d *decoder, defaultLambda float64) ldd.ENParams {
	return ldd.ENParams{
		Lambda:  d.float("lambda", defaultLambda),
		NTilde:  d.int("ntilde", 0),
		Seed:    d.uint("seed", 1),
		Workers: d.int("workers", 0),
	}
}

// decompositionResult wraps an ldd.Decomposition, optionally repairing
// cluster diameters first.
func decompositionResult(ctx context.Context, g *graph.Graph, dec *ldd.Decomposition, eps float64, repair bool) (*Result, error) {
	if repair {
		var err error
		dec, err = ldd.RepairDiameterCtx(ctx, g, dec, eps, 0)
		if err != nil {
			return nil, err
		}
	}
	res := &Result{
		ClusterOf:   dec.ClusterOf,
		NumClusters: dec.NumClusters,
		Unclustered: dec.UnclusteredCount(),
		Rounds:      dec.Rounds,
		Raw:         dec,
	}
	res.metric("unclustered_frac", dec.UnclusteredFraction())
	return res, nil
}

// repairDecompositionResult is the shared delta-repair body of the
// ClusterOf decomposition families: unwrap the cached ldd.Decomposition,
// patch it onto the view with ldd.RepairDelta (certifying kept clusters
// against the family's analytic weak-diameter budget), and rebuild the
// envelope with freshly computed quality metrics.
func repairDecompositionResult(ctx context.Context, gv graph.View, old *Result, delta ldd.EdgeDelta, lp ldd.Params) (*Result, error) {
	dec, ok := old.Raw.(*ldd.Decomposition)
	if !ok || dec == nil {
		return nil, fmt.Errorf("%w: cached result carries no decomposition", ldd.ErrRepairFallback)
	}
	out, rep, err := ldd.RepairDelta(ctx, gv, dec, delta, ldd.RepairDeltaParams{
		Epsilon:   lp.Epsilon,
		WeakBound: lp.WeakDiameterBound(gv.N()),
		Workers:   lp.Workers,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ClusterOf:   out.ClusterOf,
		NumClusters: out.NumClusters,
		Unclustered: out.UnclusteredCount(),
		Rounds:      out.Rounds,
		Raw:         out,
	}
	res.metric("unclustered_frac", out.UnclusteredFraction())
	stampRepairMetrics(res, old, rep.Recarved, rep.Certified)
	return res, nil
}

// stampRepairMetrics marks a repaired envelope: repair_gen counts repairs
// since the last full run (the engine caps it to bound drift), and the
// cluster counters attribute how much work the repair actually did.
func stampRepairMetrics(res, old *Result, repaired, certified int) {
	res.metric("repair_gen", RepairGen(old)+1)
	res.metric("repaired_clusters", float64(repaired))
	res.metric("certified_clusters", float64(certified))
}

// RepairGen returns how many delta repairs separate res from a full run
// (0 for a fresh computation).
func RepairGen(res *Result) float64 {
	if res == nil || res.Metrics == nil {
		return 0
	}
	return res.Metrics["repair_gen"]
}

// SyntheticWeights derives the deterministic vertex weights used by the
// weighted decomposition runner: w[v] uniform in [1, wmax] from
// (wseed, v).
func SyntheticWeights(n int, wseed uint64, wmax int) []int64 {
	w := make([]int64, n)
	for v := range w {
		rng := xrand.Stream(wseed, v, weightLabel)
		w[v] = 1 + int64(rng.Intn(wmax))
	}
	return w
}

// --- ILP families -----------------------------------------------------------

// ilpDefs are the parameter declarations shared by the ILP runners;
// withDefs appends extras in cache-key order.
func ilpDefs(defaultProblem string, extra ...ParamDef) []ParamDef {
	defs := []ParamDef{
		{Key: "problem", Kind: String, Default: defaultProblem, Doc: "mis | vc | mds | matching | kdom"},
		{Key: "k", Kind: Int, Default: "2", Doc: "distance for problem=kdom"},
		{Key: "eps", Kind: Float, Default: "0.25", Doc: "approximation parameter"},
		{Key: "ntilde", Kind: Int, Default: "0", Doc: "known upper bound (0 = n)"},
		{Key: "seed", Kind: Uint, Default: "1", Doc: "random seed"},
		{Key: "scale", Kind: Float, Default: "0", Doc: "radius scale (0 = paper constants)"},
	}
	return append(defs, extra...)
}

// buildInstance constructs the ILP instance named by the problem param.
func buildInstance(g *graph.Graph, d *decoder, defaultProblem string) (*ilp.Instance, problems.Problem, error) {
	name := d.raw("problem", defaultProblem)
	k := d.int("k", 2)
	if d.err != nil {
		return nil, 0, d.err
	}
	var prob problems.Problem
	switch name {
	case "mis":
		prob = problems.MIS
	case "vc":
		prob = problems.MinVertexCover
	case "mds":
		prob = problems.MinDominatingSet
	case "matching":
		prob = problems.MaxMatching
	case "kdom":
		if k < 1 {
			return nil, 0, fmt.Errorf("problem kdom: k must be >= 1, got %d", k)
		}
		inst, err := problems.BuildK(k, g, nil)
		if err != nil {
			return nil, 0, err
		}
		return inst, problems.KDominatingSet, nil
	default:
		return nil, 0, fmt.Errorf("unknown problem %q (want mis|vc|mds|matching|kdom)", name)
	}
	inst, err := problems.Build(prob, g, nil)
	if err != nil {
		return nil, 0, err
	}
	return inst, prob, nil
}

func ilpResult(inst *ilp.Instance, sol ilp.Solution, value int64, rounds int, exact bool) *Result {
	feasible, _ := inst.Feasible(sol)
	return &Result{
		Solution: sol,
		Value:    value,
		Rounds:   rounds,
		Exact:    exact,
		Feasible: feasible,
	}
}

func registerILPs() {
	Register(&Spec{
		Name:    "packing",
		Summary: "Theorem 1.2: (1−ε)-approximate packing ILP",
		Caps:    Capabilities{Kind: KindILP, Seeded: true, Workers: true},
		Defs: ilpDefs("mis",
			ParamDef{Key: "prep", Kind: Int, Default: "3", Doc: "preparation decompositions (0 = paper's 16 ln ñ)"},
			ParamDef{Key: "workers", Kind: Int, Default: "0", Doc: "worker pool bound (0 = GOMAXPROCS)", NoCache: true},
		),
		Run: func(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
			d := decoder{p: p}
			inst, _, err := buildInstance(g, &d, "mis")
			if err != nil {
				return nil, err
			}
			pp := packing.Params{
				Epsilon:  d.float("eps", 0.25),
				NTilde:   d.int("ntilde", 0),
				Seed:     d.uint("seed", 1),
				Scale:    d.float("scale", 0),
				PrepRuns: d.int("prep", 3),
				Workers:  d.int("workers", 0),
			}
			if d.err != nil {
				return nil, d.err
			}
			if inst.Kind() != ilp.Packing {
				return nil, fmt.Errorf("algo packing: problem %q is a covering problem", d.raw("problem", "mis"))
			}
			r, err := packing.SolveCtx(ctx, inst, pp)
			if err != nil {
				return nil, err
			}
			res := ilpResult(inst, r.Solution, r.Value, r.Rounds, r.Exact)
			res.metric("deleted", float64(r.Deleted))
			res.Raw = r
			return res, nil
		},
	})

	Register(&Spec{
		Name:    "covering",
		Summary: "Theorem 1.3: (1+ε)-approximate covering ILP",
		Caps:    Capabilities{Kind: KindILP, Seeded: true, Workers: true},
		Defs: ilpDefs("vc",
			ParamDef{Key: "prep", Kind: Int, Default: "3", Doc: "preparation covers (0 = paper's 16 ln ñ)"},
			ParamDef{Key: "workers", Kind: Int, Default: "0", Doc: "worker pool bound (0 = GOMAXPROCS)", NoCache: true},
		),
		Run: func(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
			d := decoder{p: p}
			inst, _, err := buildInstance(g, &d, "vc")
			if err != nil {
				return nil, err
			}
			cp := covering.Params{
				Epsilon:  d.float("eps", 0.25),
				NTilde:   d.int("ntilde", 0),
				Seed:     d.uint("seed", 1),
				Scale:    d.float("scale", 0),
				PrepRuns: d.int("prep", 3),
				Workers:  d.int("workers", 0),
			}
			if d.err != nil {
				return nil, d.err
			}
			if inst.Kind() != ilp.Covering {
				return nil, fmt.Errorf("algo covering: problem %q is a packing problem", d.raw("problem", "vc"))
			}
			r, err := covering.SolveCtx(ctx, inst, cp)
			if err != nil {
				return nil, err
			}
			res := ilpResult(inst, r.Solution, r.Value, r.Rounds, r.Exact)
			res.metric("fixed_weight", float64(r.FixedWeight))
			res.metric("regions", float64(r.NumRegions))
			res.Raw = r
			return res, nil
		},
	})

	Register(&Spec{
		Name:    "gkm",
		Summary: "Ghaffari–Kuhn–Maus STOC'17 baseline (packing or covering by problem)",
		Caps:    Capabilities{Kind: KindILP, Seeded: true},
		Defs:    ilpDefs("mis"),
		Run: func(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
			d := decoder{p: p}
			inst, _, err := buildInstance(g, &d, "mis")
			if err != nil {
				return nil, err
			}
			gp := gkm.Params{
				Epsilon: d.float("eps", 0.25),
				NTilde:  d.int("ntilde", 0),
				Seed:    d.uint("seed", 1),
				Scale:   d.float("scale", 0),
			}
			if d.err != nil {
				return nil, d.err
			}
			var r *gkm.Result
			if inst.Kind() == ilp.Packing {
				r, err = gkm.SolvePackingCtx(ctx, inst, gp)
			} else {
				r, err = gkm.SolveCoveringCtx(ctx, inst, gp)
			}
			if err != nil {
				return nil, err
			}
			res := ilpResult(inst, r.Solution, r.Value, r.Rounds, r.Exact)
			res.metric("colors", float64(r.Colors))
			res.metric("horizon", float64(r.Horizon))
			res.Raw = r
			return res, nil
		},
	})

	Register(&Spec{
		Name:    "solve",
		Aliases: []string{"localsolve"},
		Summary: "centralized local-solver dispatcher on the whole graph (exact baseline)",
		Caps:    Capabilities{Kind: KindILP},
		Defs: []ParamDef{
			{Key: "problem", Kind: String, Default: "mis", Doc: "mis | vc | mds | matching | kdom"},
			{Key: "k", Kind: Int, Default: "2", Doc: "distance for problem=kdom"},
			{Key: "maxexact", Kind: Int, Default: "0", Doc: "branch-and-bound size cap (0 = default 30)"},
			{Key: "greedy", Kind: Bool, Default: "false", Doc: "force the greedy fallback"},
		},
		Run: func(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
			d := decoder{p: p}
			inst, _, err := buildInstance(g, &d, "mis")
			if err != nil {
				return nil, err
			}
			opt := solve.Options{
				MaxExactVars: d.int("maxexact", 0),
				ForceGreedy:  d.bool("greedy", false),
			}
			if d.err != nil {
				return nil, d.err
			}
			all := make([]int32, inst.NumVars())
			for i := range all {
				all[i] = int32(i)
			}
			var sol ilp.Solution
			var val int64
			var m solve.Method
			if inst.Kind() == ilp.Packing {
				sol, val, m, err = solve.PackingLocalCtx(ctx, inst, all, opt)
			} else {
				sol, val, m, err = solve.CoveringLocalCtx(ctx, inst, all, opt)
			}
			if err != nil {
				return nil, err
			}
			res := ilpResult(inst, sol, val, 0, m.Exact())
			res.metric("method", float64(m))
			return res, nil
		},
	})
}
