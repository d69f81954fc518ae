package ldd

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// churnGraph maintains a mutable edge set over n vertices so the repair
// tests can derive (graph, delta) pairs epoch by epoch.
type churnGraph struct {
	n     int
	edges map[[2]int32]bool
}

func newChurnCycle(n int) *churnGraph {
	cg := &churnGraph{n: n, edges: map[[2]int32]bool{}}
	for i := 0; i < n; i++ {
		cg.set(int32(i), int32((i+1)%n), true)
	}
	return cg
}

func (cg *churnGraph) set(u, v int32, present bool) {
	if u > v {
		u, v = v, u
	}
	if present {
		cg.edges[[2]int32{u, v}] = true
	} else {
		delete(cg.edges, [2]int32{u, v})
	}
}

func (cg *churnGraph) graph() *graph.Graph {
	b := graph.NewBuilder(cg.n)
	for e := range cg.edges {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	return b.Build()
}

// mutate toggles k random vertex pairs and returns the net delta.
func (cg *churnGraph) mutate(rng *xrand.RNG, k int) EdgeDelta {
	var d EdgeDelta
	for len(d.Added)+len(d.Removed) < k {
		u := int32(rng.Intn(cg.n))
		v := int32(rng.Intn(cg.n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if cg.edges[[2]int32{u, v}] {
			cg.set(u, v, false)
			d.Removed = append(d.Removed, [2]int32{u, v})
		} else {
			cg.set(u, v, true)
			d.Added = append(d.Added, [2]int32{u, v})
		}
	}
	return d
}

// checkDecompositionInvariants asserts the quality invariants a fresh
// Theorem 1.1 run guarantees — separation, the analytic weak-diameter
// budget, the unclustered bound, dense cluster ids — so fresh and repaired
// decompositions are held to the identical standard.
func checkDecompositionInvariants(t *testing.T, tag string, g *graph.Graph, d *Decomposition, p Params) {
	t.Helper()
	if ok, u, v := d.ValidateSeparation(g); !ok {
		t.Fatalf("%s: adjacent clusters at %d-%d", tag, u, v)
	}
	bound := p.WeakDiameterBound(g.N())
	if wd := d.MaxWeakDiameter(g); wd == -1 || wd > bound {
		t.Fatalf("%s: weak diameter %d exceeds budget %d", tag, wd, bound)
	}
	if frac := d.UnclusteredFraction(); frac > p.Epsilon+1.0/float64(g.N()) {
		t.Fatalf("%s: unclustered fraction %.4f > eps %.2f", tag, frac, p.Epsilon)
	}
	seen := make([]bool, d.NumClusters)
	for _, c := range d.ClusterOf {
		if c < Unclustered || int(c) >= d.NumClusters {
			t.Fatalf("%s: bad cluster id %d", tag, c)
		}
		if c >= 0 {
			seen[c] = true
		}
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("%s: cluster id %d unused", tag, c)
		}
	}
}

// TestRepairDeltaChurnEquivalence drives a randomized churn sequence and
// asserts, every epoch, that the repaired decomposition satisfies the same
// invariants as a full recompute on the same graph — and that the full
// recompute itself satisfies them, so the shared budget is honest. Repairs
// are chained (each epoch repairs the previous epoch's output) to exercise
// repairs-of-repairs.
func TestRepairDeltaChurnEquivalence(t *testing.T) {
	const n = 600
	// Scale 0.0005 keeps the ball radii below the cycle's diameter so the decomposition
	// has many arc clusters and re-carves actually run.
	p := Params{Epsilon: 0.3, Seed: 3, Scale: 0.0005}
	rp := RepairDeltaParams{Epsilon: p.Epsilon, WeakBound: p.WeakDiameterBound(n)}
	for trial := uint64(0); trial < 3; trial++ {
		rng := xrand.New(100 + trial)
		cg := newChurnCycle(n)
		g := cg.graph()
		cur := must(ChangLiCtx(context.Background(), g, p))
		checkDecompositionInvariants(t, "fresh epoch 0", g, cur, p)
		repaired, fallbacks := 0, 0
		for epoch := 1; epoch <= 25; epoch++ {
			delta := cg.mutate(rng, 1+rng.Intn(4))
			g = cg.graph()
			next, rep, err := RepairDelta(context.Background(), g, cur, delta, rp)
			if err != nil {
				if !errors.Is(err, ErrRepairFallback) {
					t.Fatalf("trial %d epoch %d: unexpected error %v", trial, epoch, err)
				}
				fallbacks++
				next = must(ChangLiCtx(context.Background(), g, p))
			} else if rep.Recarved > 0 || rep.Certified > 0 {
				repaired++
			}
			checkDecompositionInvariants(t, "repaired", g, next, p)
			fresh := must(ChangLiCtx(context.Background(), g, p))
			checkDecompositionInvariants(t, "fresh", g, fresh, p)
			cur = next
		}
		if repaired == 0 {
			t.Fatalf("trial %d: churn sequence never exercised a repair", trial)
		}
		t.Logf("trial %d: %d epochs with repair work, %d fallbacks", trial, repaired, fallbacks)
	}
}

// TestRepairDeltaNoops pins the classification: deltas that cannot break
// any invariant return the input decomposition untouched.
func TestRepairDeltaNoops(t *testing.T) {
	cg := newChurnCycle(400)
	g := cg.graph()
	p := Params{Epsilon: 0.3, Seed: 1, Scale: 0.0005}
	d := must(ChangLiCtx(context.Background(), g, p))
	rp := RepairDeltaParams{Epsilon: p.Epsilon, WeakBound: p.WeakDiameterBound(g.N())}

	// An added edge inside one cluster cannot break separation or stretch
	// the cluster.
	var intra [2]int32
	found := false
	for v := 0; v < g.N() && !found; v++ {
		c := d.ClusterOf[v]
		if c < 0 {
			continue
		}
		w := int32((v + 2) % g.N())
		if d.ClusterOf[w] == c && !g.HasEdge(v, int(w)) {
			intra = [2]int32{int32(v), w}
			found = true
		}
	}
	if !found {
		t.Skip("no intra-cluster chord available")
	}
	cg.set(intra[0], intra[1], true)
	out, rep, err := RepairDelta(context.Background(), cg.graph(), d, EdgeDelta{Added: [][2]int32{intra}}, rp)
	if err != nil || out != d {
		t.Fatalf("intra-cluster add: got (%p, %v), want the input back", out, err)
	}
	if rep.Recarved != 0 || rep.NewClusters != 0 {
		t.Fatalf("intra-cluster add recarved %d clusters", rep.Recarved)
	}

	// A removed cross-cluster edge only widens separation.
	cg = newChurnCycle(400)
	g = cg.graph()
	d = must(ChangLiCtx(context.Background(), g, p))
	var cross [2]int32
	found = false
	for v := 0; v < g.N() && !found; v++ {
		w := (v + 1) % g.N()
		cu, cv := d.ClusterOf[v], d.ClusterOf[w]
		if cu != cv {
			cross = [2]int32{int32(v), int32(w)}
			found = true
		}
	}
	if !found {
		t.Fatal("cycle decomposition has no boundary edge")
	}
	cg.set(cross[0], cross[1], false)
	out, _, err = RepairDelta(context.Background(), cg.graph(), d, EdgeDelta{Removed: [][2]int32{cross}}, rp)
	if err != nil || out != d {
		t.Fatalf("cross-cluster removal: got (%p, %v), want the input back", out, err)
	}
}

// TestRepairDeltaFallbacks pins the refusal paths: malformed deltas and
// over-large regions return ErrRepairFallback rather than a bad result.
func TestRepairDeltaFallbacks(t *testing.T) {
	cg := newChurnCycle(400)
	g := cg.graph()
	p := Params{Epsilon: 0.3, Seed: 2, Scale: 0.0005}
	d := must(ChangLiCtx(context.Background(), g, p))

	_, _, err := RepairDelta(context.Background(), g, d,
		EdgeDelta{Added: [][2]int32{{5, 9999}}}, RepairDeltaParams{Epsilon: p.Epsilon})
	if !errors.Is(err, ErrRepairFallback) {
		t.Fatalf("out-of-range edge: err = %v, want ErrRepairFallback", err)
	}

	// Force a re-carve with a region cap no repair can meet.
	var boundary [2]int32
	found := false
	for v := 0; v < g.N() && !found; v++ {
		w := int32((v + 3) % g.N())
		cu, cv := d.ClusterOf[v], d.ClusterOf[w]
		if cu >= 0 && cv >= 0 && cu != cv && !g.HasEdge(v, int(w)) {
			boundary = [2]int32{int32(v), w}
			found = true
		}
	}
	if !found {
		t.Skip("no cross-cluster chord available")
	}
	cg.set(boundary[0], boundary[1], true)
	_, _, err = RepairDelta(context.Background(), cg.graph(), d,
		EdgeDelta{Added: [][2]int32{boundary}},
		RepairDeltaParams{Epsilon: p.Epsilon, MaxRegionFrac: 1e-9})
	if !errors.Is(err, ErrRepairFallback) {
		t.Fatalf("tiny region cap: err = %v, want ErrRepairFallback", err)
	}

	// A decomposition for the wrong vertex count is rejected.
	small := newChurnCycle(100).graph()
	_, _, err = RepairDelta(context.Background(), small, d, EdgeDelta{}, RepairDeltaParams{})
	if !errors.Is(err, ErrRepairFallback) {
		t.Fatalf("size mismatch: err = %v, want ErrRepairFallback", err)
	}
}

// checkCoverInvariants asserts the Lemma C.2 serving invariants on a
// (possibly repaired) cover: every vertex is a member of every cluster
// that lists it, every current edge has a cluster containing both
// endpoints, and every cluster stays within the weak-diameter budget.
func checkCoverInvariants(t *testing.T, tag string, g *graph.Graph, c *Cover, bound int) {
	t.Helper()
	for v, ids := range c.MemberOf {
		for _, id := range ids {
			members := c.Clusters[id]
			ok := false
			for _, m := range members {
				if int(m) == v {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("%s: vertex %d lists cluster %d but is not a member", tag, v, id)
			}
		}
	}
	g.Edges(func(u, v int) {
		if len(commonClusters(c.MemberOf[u], c.MemberOf[v], nil)) == 0 {
			t.Fatalf("%s: edge {%d,%d} covered by no cluster", tag, u, v)
		}
	})
	if wd := c.MaxWeakDiameter(g); wd == -1 || wd > bound {
		t.Fatalf("%s: weak diameter %d exceeds budget %d", tag, wd, bound)
	}
}

// TestRepairCoverDeltaChurn churns a sparse cover: removals ride the
// certificate, additions get patch clusters, and the repaired cover must
// satisfy the same invariants as a fresh run on the mutated graph.
func TestRepairCoverDeltaChurn(t *testing.T) {
	const n = 500
	p := ENParams{Lambda: 0.3, Seed: 5}
	bound := p.WeakDiameterBound(n)
	rng := xrand.New(42)
	cg := newChurnCycle(n)
	g := cg.graph()
	cur := must(SparseCoverCtx(context.Background(), g, nil, p, nil))
	checkCoverInvariants(t, "fresh epoch 0", g, cur, bound)
	patched, fallbacks := 0, 0
	for epoch := 1; epoch <= 20; epoch++ {
		delta := cg.mutate(rng, 1+rng.Intn(3))
		g = cg.graph()
		next, rep, err := RepairCoverDelta(context.Background(), g, cur, delta,
			RepairCoverParams{WeakBound: bound})
		if err != nil {
			if !errors.Is(err, ErrRepairFallback) {
				t.Fatalf("epoch %d: unexpected error %v", epoch, err)
			}
			fallbacks++
			next = must(SparseCoverCtx(context.Background(), g, nil, p, nil))
		} else if rep.NewClusters > 0 {
			patched++
		}
		checkCoverInvariants(t, "repaired", g, next, bound)
		cur = next
	}
	if patched == 0 {
		t.Fatal("churn sequence never appended a patch cluster")
	}
	t.Logf("%d epochs with patches, %d fallbacks", patched, fallbacks)
}

// TestRepairCoverDeltaGuards pins the cover repair refusal paths.
func TestRepairCoverDeltaGuards(t *testing.T) {
	cg := newChurnCycle(100)
	g := cg.graph()
	p := ENParams{Lambda: 0.3, Seed: 1}
	c := must(SparseCoverCtx(context.Background(), g, nil, p, nil))

	if _, _, err := RepairCoverDelta(context.Background(), g, c, EdgeDelta{},
		RepairCoverParams{WeakBound: 1}); !errors.Is(err, ErrRepairFallback) {
		t.Fatalf("degenerate bound: err = %v, want ErrRepairFallback", err)
	}
	if _, _, err := RepairCoverDelta(context.Background(), g, c,
		EdgeDelta{Removed: [][2]int32{{0, 500}}},
		RepairCoverParams{WeakBound: p.WeakDiameterBound(g.N())}); !errors.Is(err, ErrRepairFallback) {
		t.Fatalf("out-of-range edge: err = %v, want ErrRepairFallback", err)
	}
	// An empty delta hands the cover back unchanged.
	out, rep, err := RepairCoverDelta(context.Background(), g, c, EdgeDelta{},
		RepairCoverParams{WeakBound: p.WeakDiameterBound(g.N())})
	if err != nil || out != c || rep.NewClusters != 0 {
		t.Fatalf("empty delta: got (%p, %+v, %v), want the input back", out, rep, err)
	}
}
