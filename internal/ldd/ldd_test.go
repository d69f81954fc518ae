package ldd

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/hypergraph"
	"repro/internal/xrand"
)

func TestENSeparationAndDiameter(t *testing.T) {
	g := gen.Grid(25, 30)
	for seed := uint64(0); seed < 5; seed++ {
		p := ENParams{Lambda: 0.2, Seed: seed}
		d := must(ElkinNeimanCtx(context.Background(), g, nil, p, nil))
		if ok, u, v := d.ValidateSeparation(g); !ok {
			t.Fatalf("seed %d: clusters adjacent at %d-%d", seed, u, v)
		}
		bound := int(8 * math.Log(float64(g.N())) / 0.2)
		if sd := d.MaxStrongDiameter(g); sd == -1 || sd > bound {
			t.Fatalf("seed %d: strong diameter %d exceeds %d", seed, sd, bound)
		}
	}
}

func TestENCoversEveryVertex(t *testing.T) {
	// Every vertex is either clustered or deleted; cluster ids dense.
	g := gen.Cycle(50)
	d := must(ElkinNeimanCtx(context.Background(), g, nil, ENParams{Lambda: 0.3, Seed: 7}, nil))
	seen := make([]bool, d.NumClusters)
	for _, c := range d.ClusterOf {
		if c >= 0 {
			seen[c] = true
		}
	}
	for id, s := range seen {
		if !s {
			t.Fatalf("cluster id %d unused", id)
		}
	}
}

func TestENDeletionRate(t *testing.T) {
	// Average deleted fraction over trials should be near <= 1 - e^-lambda
	// (plus slack); measured on a long cycle where boundary effects matter.
	g := gen.Cycle(2000)
	lambda := 0.2
	total := 0
	const trials = 20
	for seed := uint64(0); seed < trials; seed++ {
		d := must(ElkinNeimanCtx(context.Background(), g, nil, ENParams{Lambda: lambda, Seed: seed}, nil))
		total += d.UnclusteredCount()
	}
	mean := float64(total) / float64(trials) / float64(g.N())
	bound := 1 - math.Exp(-lambda) // ~0.181
	if mean > bound*1.3 {
		t.Fatalf("mean deleted fraction %.4f far above bound %.4f", mean, bound)
	}
	if mean == 0 {
		t.Fatal("no deletions at all over 20 trials is implausible on a long cycle")
	}
}

func TestENAliveMask(t *testing.T) {
	g := gen.Path(30)
	alive := make([]bool, 30)
	for i := 5; i < 25; i++ {
		alive[i] = true
	}
	d := must(ElkinNeimanCtx(context.Background(), g, alive, ENParams{Lambda: 0.3, Seed: 1}, nil))
	for v := 0; v < 30; v++ {
		if (v < 5 || v >= 25) && d.ClusterOf[v] != Unclustered {
			t.Fatalf("dead vertex %d clustered", v)
		}
	}
}

// TestENEmptyResidual checks the run on a residual with no alive vertex,
// which skips the label search: every vertex is unclustered, the sparse
// cover has no cluster, and both charge the horizon of a whole-graph run.
func TestENEmptyResidual(t *testing.T) {
	ctx := context.Background()
	g := gen.Grid(10, 10)
	dead := make([]bool, g.N())
	p := ENParams{Lambda: 0.3, Seed: 4}
	d := must(ElkinNeimanCtx(ctx, g, dead, p, nil))
	if full := must(ElkinNeimanCtx(ctx, g, nil, p, nil)); d.NumClusters != 0 || d.Rounds != full.Rounds {
		t.Fatalf("empty residual: %d clusters, %d rounds; whole graph %d rounds", d.NumClusters, d.Rounds, full.Rounds)
	}
	for v, c := range d.ClusterOf {
		if c != Unclustered {
			t.Fatalf("dead vertex %d clustered", v)
		}
	}
	c := must(SparseCoverCtx(ctx, g, dead, p, nil))
	if full := must(SparseCoverCtx(ctx, g, nil, p, nil)); len(c.Clusters) != 0 || c.Rounds != full.Rounds || len(c.MemberOf) != g.N() {
		t.Fatalf("empty residual cover: %d clusters, %d rounds; whole graph %d rounds", len(c.Clusters), c.Rounds, full.Rounds)
	}
}

func TestENDistributedMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{{"cycle", 60}, {"grid", 0}, {"cliquepath", 0}} {
		var g = gen.Cycle(60)
		switch tc.name {
		case "grid":
			g = gen.Grid(8, 8)
		case "cliquepath":
			g = gen.CliquePlusPath(10, 15)
		}
		for seed := uint64(0); seed < 4; seed++ {
			p := ENParams{Lambda: 0.25, Seed: seed}
			oracle := must(ElkinNeimanCtx(context.Background(), g, nil, p, nil))
			dist, stats, err := ElkinNeimanDistributed(g, p, seed%2 == 0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			if stats.Messages == 0 {
				t.Fatalf("%s: no messages exchanged", tc.name)
			}
			if len(oracle.ClusterOf) != len(dist.ClusterOf) {
				t.Fatal("length mismatch")
			}
			for v := range oracle.ClusterOf {
				if oracle.ClusterOf[v] != dist.ClusterOf[v] {
					t.Fatalf("%s seed %d: vertex %d oracle=%d distributed=%d",
						tc.name, seed, v, oracle.ClusterOf[v], dist.ClusterOf[v])
				}
			}
		}
	}
}

func TestENDistributedIsLocalNotCongest(t *testing.T) {
	// The label batches exceed O(log n) bits on dense graphs — the protocol
	// is a LOCAL-model protocol; the audit must notice.
	g := gen.Complete(40)
	_, stats, err := ElkinNeimanDistributed(g, ENParams{Lambda: 0.2, Seed: 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxMessageBits == 0 {
		t.Fatal("no sized messages recorded")
	}
}

func TestMPXClustersEverything(t *testing.T) {
	g := gen.Torus(12, 12)
	r := must(MPXCtx(context.Background(), g, ENParams{Lambda: 0.2, Seed: 5}))
	for v, c := range r.ClusterOf {
		if c == Unclustered {
			t.Fatalf("MPX left vertex %d unclustered", v)
		}
	}
	// Cut edges: endpoints must be in different clusters.
	for _, e := range r.CutEdges {
		if r.ClusterOf[e[0]] == r.ClusterOf[e[1]] {
			t.Fatal("cut edge inside a cluster")
		}
	}
	// Non-cut edges connect same-cluster endpoints by definition; verify by
	// counting.
	cut := map[[2]int]bool{}
	for _, e := range r.CutEdges {
		cut[e] = true
	}
	g.Edges(func(u, v int) {
		if !cut[[2]int{u, v}] && r.ClusterOf[u] != r.ClusterOf[v] {
			t.Fatalf("inter-cluster edge %d-%d not cut", u, v)
		}
	})
}

func TestMPXExpectedCutFraction(t *testing.T) {
	g := gen.Torus(20, 20)
	lambda := 0.1
	total := 0
	const trials = 20
	for seed := uint64(0); seed < trials; seed++ {
		r := must(MPXCtx(context.Background(), g, ENParams{Lambda: lambda, Seed: seed}))
		total += len(r.CutEdges)
	}
	frac := float64(total) / float64(trials) / float64(g.M())
	// Theory: O(lambda) per edge; allow generous constant.
	if frac > 6*lambda {
		t.Fatalf("cut fraction %.4f >> O(lambda=%.2f)", frac, lambda)
	}
}

func TestSparseCoverCoversHyperedges(t *testing.T) {
	// The Lemma C.2 cover runs on the hypergraph's primal (communication)
	// graph, where co-edge vertices are adjacent — that adjacency is what
	// makes the "within 1 of the best" window cover whole hyperedges.
	g := gen.Grid(12, 12)
	h := hypergraph.ClosedNeighborhoods(g)
	primal := h.Primal()
	for seed := uint64(0); seed < 5; seed++ {
		c := must(SparseCoverCtx(context.Background(), primal, nil, ENParams{Lambda: 0.4, Seed: seed}, nil))
		if ok, e := VerifyCover(h, c); !ok {
			t.Fatalf("seed %d: hyperedge %d uncovered", seed, e)
		}
		bound := int(8*math.Log(float64(primal.N()))/0.4) + 1
		if wd := c.MaxWeakDiameter(primal); wd == -1 || wd > bound {
			t.Fatalf("seed %d: weak diameter %d > %d", seed, wd, bound)
		}
	}
}

func TestSparseCoverMultiplicity(t *testing.T) {
	// Mean multiplicity should be near E[Geometric(e^-lambda)] = e^lambda.
	g := gen.Cycle(3000)
	lambda := 0.3
	var sum float64
	const trials = 10
	for seed := uint64(0); seed < trials; seed++ {
		c := must(SparseCoverCtx(context.Background(), g, nil, ENParams{Lambda: lambda, Seed: seed}, nil))
		sum += c.MeanMultiplicity()
	}
	mean := sum / trials
	want := math.Exp(lambda) // ~1.35
	if mean > want*1.25 || mean < 1 {
		t.Fatalf("mean multiplicity %.3f, want near %.3f", mean, want)
	}
}

func TestSparseCoverEveryVertexCovered(t *testing.T) {
	g := gen.Path(100)
	c := must(SparseCoverCtx(context.Background(), g, nil, ENParams{Lambda: 0.5, Seed: 2}, nil))
	for v := 0; v < g.N(); v++ {
		if c.Multiplicity(v) < 1 {
			t.Fatalf("vertex %d in no cluster", v)
		}
	}
	if c.MaxMultiplicity() < 1 {
		t.Fatal("max multiplicity")
	}
}

func TestGrowCarveOnPath(t *testing.T) {
	g := gen.Path(30)
	alive := make([]bool, 30)
	for i := range alive {
		alive[i] = true
	}
	oc := GrowCarve(g, 0, 5, 10, alive, nil, new(graph.ParWorkspace), 1)
	if oc == nil {
		t.Fatal("nil outcome for alive centre")
	}
	// Layers from vertex 0 on a path have exactly one vertex each, so any
	// j* in [5,10] deletes one vertex and removes j* vertices.
	if len(oc.Deleted) != 1 {
		t.Fatalf("deleted %d vertices, want 1", len(oc.Deleted))
	}
	if oc.JStar < 5 || oc.JStar > 10 {
		t.Fatalf("jStar = %d outside window", oc.JStar)
	}
	if len(oc.Removed) != oc.JStar {
		t.Fatalf("removed %d, want %d", len(oc.Removed), oc.JStar)
	}
}

func TestGrowCarvePicksSparsestLayer(t *testing.T) {
	// Caterpillar: spine with legs; layer sizes from spine end differ.
	// Construct explicit: star center 0 with long path; layers from path end
	// have size 1 until they hit the star.
	g := gen.Star(20) // center 0, 19 leaves: layers from a leaf: 1,1,18
	alive := make([]bool, g.N())
	for i := range alive {
		alive[i] = true
	}
	oc := GrowCarve(g, 1, 1, 2, alive, nil, new(graph.ParWorkspace), 1) // from leaf 1: layer1={0} size 1, layer2=rest size 18
	if oc.JStar != 1 {
		t.Fatalf("jStar = %d, want 1 (sparsest layer)", oc.JStar)
	}
	if len(oc.Deleted) != 1 || oc.Deleted[0] != 0 {
		t.Fatalf("deleted = %v, want the center", oc.Deleted)
	}
}

func TestGrowCarveExhaustedComponent(t *testing.T) {
	g := gen.Path(5)
	alive := make([]bool, 5)
	for i := range alive {
		alive[i] = true
	}
	oc := GrowCarve(g, 2, 10, 20, alive, nil, new(graph.ParWorkspace), 1)
	if len(oc.Deleted) != 0 {
		t.Fatal("exhausted component should delete nothing")
	}
	if len(oc.Removed) != 5 {
		t.Fatalf("removed %d, want whole component", len(oc.Removed))
	}
}

func TestGrowCarveDeadCentre(t *testing.T) {
	g := gen.Path(5)
	alive := make([]bool, 5)
	if GrowCarve(g, 2, 1, 2, alive, nil, new(graph.ParWorkspace), 1) != nil {
		t.Fatal("dead centre should return nil")
	}
}

func TestDeriveIntervals(t *testing.T) {
	d := derive(1000, Params{Epsilon: 0.2})
	if d.T != 7 { // ceil(log2(100)) = 7
		t.Fatalf("t = %d, want 7", d.T)
	}
	if len(d.Intervals) != d.T+1 {
		t.Fatalf("intervals = %d", len(d.Intervals))
	}
	// Intervals are disjoint, equal length R, descending, with a_{i} > b_{i+1}.
	for i, iv := range d.Intervals {
		if iv[1]-iv[0]+1 != d.R {
			t.Fatalf("interval %d has length %d, want R=%d", i, iv[1]-iv[0]+1, d.R)
		}
		if i > 0 {
			prev := d.Intervals[i-1]
			if iv[1] >= prev[0] {
				t.Fatalf("intervals %d and %d overlap: %v %v", i-1, i, prev, iv)
			}
		}
	}
	// Last interval is [R+1, 2R].
	last := d.Intervals[len(d.Intervals)-1]
	if last[0] != d.R+1 || last[1] != 2*d.R {
		t.Fatalf("phase-2 interval = %v", last)
	}
}

func TestDeriveSkipPhase2(t *testing.T) {
	d := derive(100000, Params{Epsilon: 0.2, SkipPhase2: true})
	base := derive(100000, Params{Epsilon: 0.2})
	if d.T <= base.T {
		t.Fatalf("covering-mode t = %d should exceed %d", d.T, base.T)
	}
}

func TestChangLiSeparationAndValidity(t *testing.T) {
	cases := []struct {
		name  string
		scale float64
		eps   float64
	}{
		{"paperScale", 1, 0.3},
		{"smallScale", 0.002, 0.3},
	}
	g := gen.Cycle(3000)
	for _, c := range cases {
		for seed := uint64(0); seed < 3; seed++ {
			d := must(ChangLiCtx(context.Background(), g, Params{Epsilon: c.eps, Seed: seed, Scale: c.scale}))
			if ok, u, v := d.ValidateSeparation(g); !ok {
				t.Fatalf("%s seed %d: adjacent clusters at %d-%d", c.name, seed, u, v)
			}
			if d.Rounds <= 0 {
				t.Fatalf("%s: nonpositive rounds", c.name)
			}
			// Every vertex is clustered or unclustered; ids dense.
			for _, cid := range d.ClusterOf {
				if cid < -1 || int(cid) >= d.NumClusters {
					t.Fatalf("%s: bad cluster id %d", c.name, cid)
				}
			}
		}
	}
}

func TestChangLiPaperConstantsQuality(t *testing.T) {
	// With the paper's constants, the unclustered bound eps*n must hold on
	// every trial (that is the whole point of Theorem 1.1). On graphs whose
	// diameter is below R the algorithm degenerates to whole-component
	// clusters with zero deletions, which satisfies the bound exactly.
	eps := 0.25
	gs := []struct {
		name string
	}{{"grid"}, {"cliquepath"}, {"torus"}}
	for _, tc := range gs {
		var g = gen.Grid(30, 30)
		switch tc.name {
		case "cliquepath":
			g = gen.CliquePlusPath(100, 200)
		case "torus":
			g = gen.Torus(20, 30)
		}
		for seed := uint64(0); seed < 10; seed++ {
			d := must(ChangLiCtx(context.Background(), g, Params{Epsilon: eps, Seed: seed}))
			if frac := d.UnclusteredFraction(); frac > eps {
				t.Fatalf("%s seed %d: unclustered fraction %.4f > eps %.2f",
					tc.name, seed, frac, eps)
			}
			if ok, u, v := d.ValidateSeparation(g); !ok {
				t.Fatalf("%s seed %d: adjacent clusters %d-%d", tc.name, seed, u, v)
			}
		}
	}
}

func TestChangLiDeterministic(t *testing.T) {
	g := gen.Cycle(1000)
	p := Params{Epsilon: 0.3, Seed: 42, Scale: 0.005}
	d1 := must(ChangLiCtx(context.Background(), g, p))
	d2 := must(ChangLiCtx(context.Background(), g, p))
	for v := range d1.ClusterOf {
		if d1.ClusterOf[v] != d2.ClusterOf[v] {
			t.Fatalf("nondeterministic at vertex %d", v)
		}
	}
	if d1.Rounds != d2.Rounds {
		t.Fatal("round count nondeterministic")
	}
}

func TestChangLiSkipPhase2(t *testing.T) {
	g := gen.Cycle(2000)
	d := must(ChangLiCtx(context.Background(), g, Params{Epsilon: 0.3, Seed: 1, Scale: 0.002, SkipPhase2: true}))
	if ok, u, v := d.ValidateSeparation(g); !ok {
		t.Fatalf("adjacent clusters %d-%d", u, v)
	}
}

func TestChangLiSmallScaleExercisesPhases(t *testing.T) {
	// With a small scale on a long cycle the carve window is well inside the
	// graph, so Phase 1/2 must actually remove and delete vertices.
	g := gen.Cycle(4000)
	d := must(ChangLiCtx(context.Background(), g, Params{Epsilon: 0.3, Seed: 3, Scale: 0.002}))
	if d.NumClusters < 2 {
		t.Fatalf("expected multiple clusters, got %d", d.NumClusters)
	}
}

func TestBlackboxSeparationAndQuality(t *testing.T) {
	g := gen.Cycle(2000)
	for seed := uint64(0); seed < 3; seed++ {
		d := must(BlackboxCtx(context.Background(), g, BlackboxParams{Epsilon: 0.25, Seed: seed, Scale: 0.01}))
		if ok, u, v := d.ValidateSeparation(g); !ok {
			t.Fatalf("seed %d: adjacent clusters %d-%d", seed, u, v)
		}
		if d.Rounds <= 0 {
			t.Fatal("no rounds charged")
		}
	}
}

func TestBlackboxClustersMostVertices(t *testing.T) {
	g := gen.Grid(40, 40)
	d := must(BlackboxCtx(context.Background(), g, BlackboxParams{Epsilon: 0.3, Seed: 1, Scale: 0.05}))
	if frac := d.UnclusteredFraction(); frac > 0.3 {
		t.Fatalf("unclustered fraction %.3f > eps", frac)
	}
}

func TestSequentialLDD(t *testing.T) {
	g := gen.Cycle(500)
	mask := make([]bool, g.N())
	for i := range mask {
		mask[i] = true
	}
	eps := 0.2
	clusters, deleted := SequentialLDD(g, mask, eps)
	// Partition check.
	seen := make([]int, g.N())
	total := 0
	for _, c := range clusters {
		for _, v := range c {
			seen[v]++
			total++
		}
	}
	for _, v := range deleted {
		seen[v]++
		total++
	}
	if total != g.N() {
		t.Fatalf("partition covers %d of %d", total, g.N())
	}
	for v, s := range seen {
		if s != 1 {
			t.Fatalf("vertex %d covered %d times", v, s)
		}
	}
	// Deleted fraction <= eps (the per-cluster boundary is <= eps * cluster).
	if float64(len(deleted)) > eps*float64(g.N())+1 {
		t.Fatalf("deleted %d > eps*n", len(deleted))
	}
	// Diameter bound.
	bound := int(2*math.Log(float64(g.N()))/math.Log1p(eps)) + 2
	for _, c := range clusters {
		if sd := g.StrongDiameter(c); sd == -1 || sd > bound {
			t.Fatalf("cluster diameter %d > %d", sd, bound)
		}
	}
}

func TestRepairDiameter(t *testing.T) {
	// Build a decomposition with one giant cluster (the whole cycle) and
	// repair it down to the ideal bound.
	g := gen.Cycle(1000)
	d := &Decomposition{ClusterOf: make([]int32, g.N()), NumClusters: 1}
	eps := 0.3
	target := 80
	r := must(RepairDiameterCtx(context.Background(), g, d, eps, target))
	if ok, u, v := r.ValidateSeparation(g); !ok {
		t.Fatalf("repair broke separation at %d-%d", u, v)
	}
	if sd := r.MaxStrongDiameter(g); sd == -1 || sd > target {
		t.Fatalf("post-repair diameter %d > %d", sd, target)
	}
	// The repair deletes at most ~eps/2 of the repaired cluster.
	if frac := r.UnclusteredFraction(); frac > eps {
		t.Fatalf("repair deleted %.3f > eps", frac)
	}
	if r.NumClusters < 2 {
		t.Fatal("giant cluster not split")
	}
}

func TestRepairLeavesSmallClustersAlone(t *testing.T) {
	g := gen.Path(10)
	d := &Decomposition{ClusterOf: make([]int32, 10), NumClusters: 1}
	r := must(RepairDiameterCtx(context.Background(), g, d, 0.3, 100))
	if r.NumClusters != 1 || r.UnclusteredCount() != 0 {
		t.Fatal("small cluster should be untouched")
	}
}

func BenchmarkElkinNeimanCycle(b *testing.B) {
	g := gen.Cycle(5000)
	for i := 0; i < b.N; i++ {
		_ = must(ElkinNeimanCtx(context.Background(), g, nil, ENParams{Lambda: 0.2, Seed: uint64(i)}, nil))
	}
}

func BenchmarkChangLiCycle(b *testing.B) {
	g := gen.Cycle(3000)
	for i := 0; i < b.N; i++ {
		_ = must(ChangLiCtx(context.Background(), g, Params{Epsilon: 0.3, Seed: uint64(i), Scale: 0.002}))
	}
}

func TestENShiftsClipped(t *testing.T) {
	// Lemma C.1: T_v >= 4 ln(ñ)/λ is reset to 0, so every realized shift
	// sits strictly below the broadcast horizon.
	p := ENParams{Lambda: 0.1, NTilde: 500, Seed: 3}
	shifts, maxT := enShiftsOwned(500, p)
	for v, s := range shifts {
		if s < 0 || s >= maxT {
			t.Fatalf("shift[%d] = %v outside [0, %v)", v, s, maxT)
		}
	}
	// With λ = 4 ln(ñ) / maxT and 500 draws, some reset should occur over
	// a few seeds for large λ; check the reset path executes.
	resets := 0
	for seed := uint64(0); seed < 50; seed++ {
		pp := ENParams{Lambda: 5, NTilde: 4, Seed: seed}
		sh, mt := enShiftsOwned(3, pp)
		for _, s := range sh {
			if s == 0 {
				resets++
			}
		}
		_ = mt
	}
	if resets == 0 {
		t.Log("no zero shifts observed (possible but unlikely); not fatal")
	}
}

// TestChangLiParallelBitIdentical verifies the worker-pool fan-out of the
// per-vertex ball sizes and per-iteration carves: seeded decompositions are
// bit-identical for any worker count.
func TestChangLiParallelBitIdentical(t *testing.T) {
	for _, n := range []int{60, 173} {
		g := gen.Cycle(n)
		for _, seed := range []uint64{1, 5, 23} {
			seq := must(ChangLiCtx(context.Background(), g, Params{Epsilon: 0.25, Seed: seed, Scale: 0.01, Workers: 1}))
			parl := must(ChangLiCtx(context.Background(), g, Params{Epsilon: 0.25, Seed: seed, Scale: 0.01, Workers: 5}))
			if seq.NumClusters != parl.NumClusters || seq.Rounds != parl.Rounds {
				t.Fatalf("n=%d seed=%d: summary mismatch: seq %+v par %+v", n, seed, seq, parl)
			}
			for v := range seq.ClusterOf {
				if seq.ClusterOf[v] != parl.ClusterOf[v] {
					t.Fatalf("n=%d seed=%d: cluster of %d differs: %d vs %d",
						n, seed, v, seq.ClusterOf[v], parl.ClusterOf[v])
				}
			}
		}
	}
}

// TestWorkspaceReuseMatchesFresh runs one Workspace through Elkin–Neiman
// decompositions and sparse covers on a large graph, then on a smaller
// one, then with an alive mask, and compares every result with a run on a
// fresh workspace, so state a larger or differently masked run leaves in
// the shifts, label lists, records or cluster-id map would show.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	ctx := context.Background()
	big := gen.GNP(3000, 6.0/2999, xrand.New(11))
	small := gen.Grid(20, 20)
	alive := make([]bool, big.N())
	rng := xrand.New(12)
	for v := range alive {
		alive[v] = rng.Float64() < 0.7
	}
	runs := []struct {
		g     *graph.Graph
		alive []bool
	}{{big, nil}, {small, nil}, {big, alive}, {small, nil}}
	ws := new(Workspace)
	for i, r := range runs {
		p := ENParams{Lambda: 0.4, Seed: uint64(i + 1)}
		got := must(ElkinNeimanCtx(ctx, r.g, r.alive, p, ws))
		if want := must(ElkinNeimanCtx(ctx, r.g, r.alive, p, nil)); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: Elkin–Neiman on a reused workspace differs from a fresh one", i)
		}
		gotC := must(SparseCoverCtx(ctx, r.g, r.alive, p, ws))
		if wantC := must(SparseCoverCtx(ctx, r.g, r.alive, p, nil)); !reflect.DeepEqual(gotC, wantC) {
			t.Fatalf("run %d: sparse cover on a reused workspace differs from a fresh one", i)
		}
	}
}

// must returns v, panicking on err; the runs it wraps cannot be cancelled.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
