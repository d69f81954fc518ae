package repro

// One benchmark target per experiment in the DESIGN.md index (E1–E12): each
// runs the corresponding experiment in Quick mode, so
//
//	go test -bench=. -benchmem
//
// regenerates every table's workload with timing. cmd/experiments prints
// the full-size tables. Additional micro-benchmarks cover the core
// algorithms on their own.

import (
	"context"
	"math"
	"strconv"
	"testing"

	"repro/internal/algo"
	"repro/internal/covering"
	"repro/internal/expt"
	"repro/internal/gkm"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ldd"
	"repro/internal/packing"
	"repro/internal/problems"
	"repro/internal/xrand"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := expt.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		tbl := e.Run(expt.Config{Seed: uint64(i) + 1, Quick: true})
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkE1LDDQuality(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2WHPFailure(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE3MPXFailure(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4PackingRatio(b *testing.B)  { benchExperiment(b, "E4") }
func BenchmarkE5CoveringRatio(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6RoundScaling(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkE7RoundScalingN(b *testing.B) { benchExperiment(b, "E7") }
func BenchmarkE8Blackbox(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9SparseCover(b *testing.B)   { benchExperiment(b, "E9") }
func BenchmarkE10LowerBound(b *testing.B)   { benchExperiment(b, "E10") }
func BenchmarkE11KDomSet(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12Concentration(b *testing.B) {
	benchExperiment(b, "E12")
}

// --- Micro-benchmarks: the core algorithms in isolation -------------------

func BenchmarkAlgoElkinNeiman(b *testing.B) {
	g := gen.Cycle(4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ldd.ElkinNeiman(g, nil, ldd.ENParams{Lambda: 0.2, Seed: uint64(i)})
	}
}

// BenchmarkAlgoElkinNeimanGNP is one packing preparation decomposition:
// Elkin–Neiman at λ 0.5 on GNP(10000, 8/9999), serial, on a warm
// workspace, as the packing solver's preparation runs it.
func BenchmarkAlgoElkinNeimanGNP(b *testing.B) {
	g := gen.GNP(10000, 8.0/9999, xrand.New(7))
	ws := new(ldd.Workspace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ldd.ElkinNeimanWS(g, nil, ldd.ENParams{Lambda: 0.5, Seed: uint64(i), Workers: 1}, ws)
	}
}

func BenchmarkAlgoChangLiPaperConstants(b *testing.B) {
	g := gen.Grid(30, 30)
	for i := 0; i < b.N; i++ {
		_ = ldd.ChangLi(g, ldd.Params{Epsilon: 0.2, Seed: uint64(i)})
	}
}

func BenchmarkAlgoChangLiScaled(b *testing.B) {
	g := gen.Cycle(3000)
	for i := 0; i < b.N; i++ {
		_ = ldd.ChangLi(g, ldd.Params{Epsilon: 0.2, Seed: uint64(i), Scale: 0.001})
	}
}

// BenchmarkAlgoChangLiLarge is the large-graph decomposition benchmark the
// -cpu sweep reads for parallel speedup: the GNP instance is big enough
// that BFS frontier degree sums clear the parallel dispatch threshold, and
// Workers is left zero so -cpu (via GOMAXPROCS) controls the worker count.
// Output is bit-identical at every -cpu value; only the time moves.
func BenchmarkAlgoChangLiLarge(b *testing.B) {
	g := gen.GNP(60000, 8.0/60000, xrand.New(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ldd.ChangLi(g, ldd.Params{Epsilon: 0.25, Seed: uint64(i), Scale: 0.05})
	}
}

func BenchmarkAlgoBlackbox(b *testing.B) {
	g := gen.Cycle(2000)
	for i := 0; i < b.N; i++ {
		_ = ldd.Blackbox(g, ldd.BlackboxParams{Epsilon: 0.2, Seed: uint64(i), Scale: 0.01})
	}
}

func BenchmarkAlgoSparseCover(b *testing.B) {
	g := gen.Cycle(3000)
	for i := 0; i < b.N; i++ {
		_ = ldd.SparseCover(g, nil, ldd.ENParams{Lambda: 0.3, Seed: uint64(i)})
	}
}

// BenchmarkAlgoSparseCoverMDSPrimal is one covering preparation cover: a
// sparse cover at λ = ln(21/20) on the minimum dominating set primal of
// GNP(1000, 8/999), the square of the graph. Its neighbourhoods overlap
// heavily, so a block of equal label pops reaches many shared neighbours,
// which BenchmarkAlgoSparseCover's cycle never does.
func BenchmarkAlgoSparseCoverMDSPrimal(b *testing.B) {
	inst, err := problems.Build(problems.MinDominatingSet, gen.GNP(1000, 8.0/999, xrand.New(7)), nil)
	if err != nil {
		b.Fatal(err)
	}
	g := inst.Primal()
	lambda := math.Log(21.0 / 20.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ldd.SparseCover(g, nil, ldd.ENParams{Lambda: lambda, Seed: uint64(i)})
	}
}

func BenchmarkAlgoPackingMIS(b *testing.B) {
	g := gen.Cycle(300)
	inst, err := problems.Build(problems.MIS, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = packing.Solve(inst, packing.Params{Epsilon: 0.25, Seed: uint64(i), PrepRuns: 2})
	}
}

// BenchmarkAlgoPackingMISGNP is Theorem 1.2 in the shape of the packing
// benchmark's requests: MIS on GNP(10000, 8/9999) at the paper's radius,
// serial.
func BenchmarkAlgoPackingMISGNP(b *testing.B) {
	g := gen.GNP(10000, 8.0/9999, xrand.New(7))
	inst, err := problems.Build(problems.MIS, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = packing.Solve(inst, packing.Params{Epsilon: 0.25, Seed: uint64(i), PrepRuns: 3, Workers: 1})
	}
}

// BenchmarkAlgoCoveringMDS is Theorem 1.3 on the covering benchmark's
// input: minimum dominating set on GNP(1000, 8/999), serial.
func BenchmarkAlgoCoveringMDS(b *testing.B) {
	g := gen.GNP(1000, 8.0/999, xrand.New(7))
	inst, err := problems.Build(problems.MinDominatingSet, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := covering.Solve(inst, covering.Params{Epsilon: 0.25, Seed: uint64(i), PrepRuns: 3, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgoPackingRequest is one cold packing request as the registry
// serves it: algo.Run("packing") builds the MIS instance of GNP(10000,
// 8/9999) and solves it, serially. Unlike BenchmarkAlgoPackingMISGNP it
// pays for the instance and its primal graph on every iteration.
func BenchmarkAlgoPackingRequest(b *testing.B) {
	benchRequest(b, "packing", gen.GNP(10000, 8.0/9999, xrand.New(7)), "mis")
}

// BenchmarkAlgoCoveringRequest is one cold covering request: minimum
// dominating set on GNP(1000, 8/999) through algo.Run("covering").
func BenchmarkAlgoCoveringRequest(b *testing.B) {
	benchRequest(b, "covering", gen.GNP(1000, 8.0/999, xrand.New(7)), "mds")
}

func benchRequest(b *testing.B, name string, g *graph.Graph, problem string) {
	b.Helper()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := algo.Params{"problem": problem, "seed": strconv.Itoa(i + 1), "workers": "1"}
		if _, err := algo.Run(ctx, name, g, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgoGKMPackingMIS(b *testing.B) {
	g := gen.Cycle(120)
	inst, err := problems.Build(problems.MIS, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gkm.SolvePacking(inst, gkm.Params{Epsilon: 0.25, Seed: uint64(i), Scale: 0.4})
	}
}

// --- Ablation benchmarks (the design-choice studies listed in DESIGN.md) --

// Ablation 1: two executors, one semantics — oracle vs message passing
// (sequential and parallel) on the same Elkin–Neiman instance.
func BenchmarkAblationExecutorOracle(b *testing.B) {
	g := gen.Torus(20, 20)
	for i := 0; i < b.N; i++ {
		_ = ldd.ElkinNeiman(g, nil, ldd.ENParams{Lambda: 0.25, Seed: uint64(i)})
	}
}

func BenchmarkAblationExecutorMsgSequential(b *testing.B) {
	g := gen.Torus(20, 20)
	for i := 0; i < b.N; i++ {
		if _, _, err := ldd.ElkinNeimanDistributed(g, ldd.ENParams{Lambda: 0.25, Seed: uint64(i)}, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationExecutorMsgParallel(b *testing.B) {
	g := gen.Torus(20, 20)
	for i := 0; i < b.N; i++ {
		if _, _, err := ldd.ElkinNeimanDistributed(g, ldd.ENParams{Lambda: 0.25, Seed: uint64(i)}, false); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation 2: the Scale knob — quality/round trade-off of Chang-Li on a
// long cycle. ReportMetric exposes rounds and deleted fraction per scale.
func benchScale(b *testing.B, scale float64) {
	g := gen.Cycle(3000)
	rounds, deleted := 0, 0.0
	for i := 0; i < b.N; i++ {
		d := ldd.ChangLi(g, ldd.Params{Epsilon: 0.2, Seed: uint64(i), Scale: scale})
		rounds = d.Rounds
		deleted = d.UnclusteredFraction()
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(deleted, "deletedFrac")
}

func BenchmarkAblationScale0001(b *testing.B) { benchScale(b, 0.001) }
func BenchmarkAblationScale001(b *testing.B)  { benchScale(b, 0.01) }
func BenchmarkAblationScale01(b *testing.B)   { benchScale(b, 0.1) }

// Ablation 3: exact vs greedy local solves for the packing solver.
func BenchmarkAblationPackingExactLocal(b *testing.B) {
	g := gen.Cycle(200)
	inst, err := problems.Build(problems.MIS, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = packing.Solve(inst, packing.Params{Epsilon: 0.25, Seed: uint64(i), PrepRuns: 2})
	}
}

func BenchmarkAblationPackingGreedyLocal(b *testing.B) {
	g := gen.Cycle(200)
	inst, err := problems.Build(problems.MIS, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := packing.Params{Epsilon: 0.25, PrepRuns: 2}
	p.Solve.ForceGreedy = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i)
		_ = packing.Solve(inst, p)
	}
}

// Ablation 4: Phase 2 on/off for the decomposition (covering-style t).
func BenchmarkAblationPhase2On(b *testing.B) {
	g := gen.Cycle(2000)
	for i := 0; i < b.N; i++ {
		_ = ldd.ChangLi(g, ldd.Params{Epsilon: 0.2, Seed: uint64(i), Scale: 0.002})
	}
}

func BenchmarkAblationPhase2Off(b *testing.B) {
	g := gen.Cycle(2000)
	for i := 0; i < b.N; i++ {
		_ = ldd.ChangLi(g, ldd.Params{Epsilon: 0.2, Seed: uint64(i), Scale: 0.002, SkipPhase2: true})
	}
}

// Extension: the Section-4 alternative packing pipeline vs the main one.
func BenchmarkExtensionAlternativePacking(b *testing.B) {
	g := gen.Cycle(200)
	inst, err := problems.Build(problems.MIS, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packing.SolveAlternative(context.Background(), inst, packing.Params{Epsilon: 0.25, Seed: uint64(i)}, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension: weighted decomposition.
func BenchmarkExtensionWeightedLDD(b *testing.B) {
	g := gen.Cycle(2000)
	w := make([]int64, g.N())
	for i := range w {
		w[i] = int64(1 + i%7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ldd.ChangLiWeighted(g, w, ldd.Params{Epsilon: 0.25, Seed: uint64(i), Scale: 0.002})
	}
}

func BenchmarkE13SpannerTail(b *testing.B) { benchExperiment(b, "E13") }

func BenchmarkE14RegistrySweep(b *testing.B) { benchExperiment(b, "E14") }
