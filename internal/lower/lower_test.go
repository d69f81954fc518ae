package lower

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/matching"
	"repro/internal/xrand"
)

func TestPriorityMISValid(t *testing.T) {
	g := gen.Torus(10, 10)
	for seed := uint64(0); seed < 5; seed++ {
		set := PriorityMIS(g, 3, seed)
		ok := true
		g.Edges(func(u, v int) {
			if set[u] && set[v] {
				ok = false
			}
		})
		if !ok {
			t.Fatalf("seed %d: not independent", seed)
		}
	}
}

func TestPriorityMISConvergesToMaximal(t *testing.T) {
	// With enough rounds the set is maximal.
	g := gen.Grid(8, 8)
	set := PriorityMIS(g, 64, 7)
	for v := 0; v < g.N(); v++ {
		if set[v] {
			continue
		}
		hasNeighborIn := false
		for _, w := range g.Neighbors(v) {
			if set[w] {
				hasNeighborIn = true
				break
			}
		}
		if !hasNeighborIn {
			t.Fatalf("vertex %d not dominated: set not maximal", v)
		}
	}
}

func TestIndistinguishability(t *testing.T) {
	// The headline lower-bound mechanism: a t-round algorithm has the same
	// per-vertex inclusion rate on any two d-regular graphs whose t-balls
	// are trees, even though their independence numbers differ.
	rng := xrand.New(5)
	bip := gen.Cycle(400)    // 2-regular bipartite, girth 400
	nonBip := gen.Cycle(401) // 2-regular odd, girth 401
	const rounds, trials = 3, 300
	if !BallIsomorphic(bip, rounds) || !BallIsomorphic(nonBip, rounds) {
		t.Fatal("precondition: balls must be trees")
	}
	rateA := must(InclusionRateCtx(context.Background(), bip, rounds, trials, 1))
	rateB := must(InclusionRateCtx(context.Background(), nonBip, rounds, trials, 2))
	if math.Abs(rateA-rateB) > 0.01 {
		t.Fatalf("t-round algorithm distinguished the graphs: %v vs %v", rateA, rateB)
	}
	// But the optima differ: alpha(C400)/400 = 0.5, alpha(C401)/401 = 200/401.
	_ = rng
	// And the inclusion rate is bounded away from 1/2 at 3 rounds, i.e. the
	// algorithm is NOT (1-eps)-approximate for small eps — the lower bound's
	// quantitative content.
	if rateA > 0.49 {
		t.Fatalf("3-round MIS rate %v suspiciously close to optimal", rateA)
	}
}

func TestIndistinguishabilityRegular(t *testing.T) {
	rng := xrand.New(11)
	gA, girthA := gen.HighGirthRegular(300, 3, 6, rng)
	gB, girthB := gen.HighGirthRegular(302, 3, 6, rng)
	tRounds := 2
	if girthA <= 2*tRounds || girthB <= 2*tRounds {
		t.Skipf("generator girths %d/%d too small for t=%d", girthA, girthB, tRounds)
	}
	rateA := must(InclusionRateCtx(context.Background(), gA, tRounds, 200, 3))
	rateB := must(InclusionRateCtx(context.Background(), gB, tRounds, 200, 4))
	if math.Abs(rateA-rateB) > 0.02 {
		t.Fatalf("rates differ: %v vs %v", rateA, rateB)
	}
}

func TestGadgetDominationEqualsCover(t *testing.T) {
	// gamma(G*) == tau(G), checked by brute force on small graphs.
	for _, g := range []*graph.Graph{gen.Cycle(5), gen.Path(5), gen.Complete(4), gen.Star(5)} {
		gs := Gadget(g)
		if gs.N() != g.N()+g.M() {
			t.Fatalf("gadget size wrong: %d", gs.N())
		}
		tau := bruteVC(g)
		gamma := bruteDS(gs)
		if tau != gamma {
			t.Fatalf("gamma(G*) = %d != tau(G) = %d", gamma, tau)
		}
	}
}

func TestGadgetToCover(t *testing.T) {
	g := gen.Cycle(6)
	gs := Gadget(g)
	// A dominating set of G* that uses gadget vertices.
	dom := make([]bool, gs.N())
	// Dominate via edge gadgets only won't dominate other gadget vertices;
	// build a valid dominating set: vertices 0 and 3 dominate originals
	// 0,1,5 and 2,3,4; gadget vertices w_e adjacent to endpoints are
	// dominated iff an endpoint is in. Take {0, 2, 4}: every edge has an
	// endpoint in the set -> every w_e dominated; every original dominated.
	dom[0], dom[2], dom[4] = true, true, true
	cover := GadgetToCover(g, dom)
	if !matching.VerifyVertexCover(g, boolsToList(cover)) {
		t.Fatal("lifted set is not a cover")
	}
	// Size must not grow.
	if count(cover) > count(dom) {
		t.Fatalf("cover %d > dom %d", count(cover), count(dom))
	}
}

func TestSubdivideForMIS(t *testing.T) {
	g := gen.Cycle(6)
	gx := SubdivideForMIS(g, 2) // each edge becomes a path of length 5
	if gx.N() != 6+4*6 {
		t.Fatalf("subdivided n = %d", gx.N())
	}
	// C6 subdivided by 4 per edge = C30: alpha = 15.
	r := matching.BipartiteAuto(gx)
	if r == nil || len(r.MaxIndependentSet) != 15 {
		t.Fatalf("alpha(Gx) = %v", r)
	}
}

func TestLiftMIS(t *testing.T) {
	g := gen.Cycle(8)
	gx := SubdivideForMIS(g, 1)
	// Take the exact MIS of Gx and lift it.
	r := matching.BipartiteAuto(gx)
	sub := make([]bool, gx.N())
	for _, v := range r.MaxIndependentSet {
		sub[v] = true
	}
	lifted := LiftMIS(g, sub, 42)
	ok := true
	g.Edges(func(u, v int) {
		if lifted[u] && lifted[v] {
			ok = false
		}
	})
	if !ok {
		t.Fatal("lifted set not independent")
	}
	// Theorem B.3's accounting: |I| >= |I_sub| - 9x|V| specialized to
	// 2-regular graphs gives a positive set here.
	if count(lifted) == 0 {
		t.Fatal("lift produced empty set from a maximum subdivided MIS")
	}
}

func TestLiftCutParity(t *testing.T) {
	g := gen.Cycle(4)
	x := 1
	gx := g.Subdivide(2 * x) // C12
	// Optimal cut of C12: alternate sides.
	side := make([]bool, gx.N())
	// Build proper 2-coloring of the subdivided cycle.
	ok, coloring := gx.IsBipartite()
	if !ok {
		t.Fatal("C12 not bipartite?")
	}
	for v, c := range coloring {
		side[v] = c == 1
	}
	cut := LiftCut(g, x, side)
	if len(cut) != g.M() {
		t.Fatalf("cut length %d != m", len(cut))
	}
	// The optimal cut of Gx cuts every path edge, so each path of length 3
	// has odd parity: every original edge is cut; C4 is bipartite so a cut
	// of size 4 = |E| is consistent.
	if CutSize(cut) != 4 {
		t.Fatalf("lifted cut = %d, want 4", CutSize(cut))
	}
}

func TestBallIsomorphic(t *testing.T) {
	if !BallIsomorphic(gen.Cycle(20), 9) {
		t.Fatal("C20 t=9 balls are trees")
	}
	if BallIsomorphic(gen.Cycle(20), 10) {
		t.Fatal("C20 t=10 balls contain the cycle")
	}
	if !BallIsomorphic(gen.Path(10), 100) {
		t.Fatal("forest balls are always trees")
	}
}

// --- helpers ---------------------------------------------------------------

func bruteVC(g *graph.Graph) int {
	n := g.N()
	best := n
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		g.Edges(func(u, v int) {
			if mask&(1<<u) == 0 && mask&(1<<v) == 0 {
				ok = false
			}
		})
		if !ok {
			continue
		}
		c := popcount(mask)
		if c < best {
			best = c
		}
	}
	return best
}

func bruteDS(g *graph.Graph) int {
	n := g.N()
	best := n
	for mask := 0; mask < 1<<n; mask++ {
		dominated := 0
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				dominated |= 1 << v
				for _, u := range g.Neighbors(v) {
					dominated |= 1 << u
				}
			}
		}
		if dominated != (1<<n)-1 {
			continue
		}
		c := popcount(mask)
		if c < best {
			best = c
		}
	}
	return best
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func count(bs []bool) int {
	c := 0
	for _, b := range bs {
		if b {
			c++
		}
	}
	return c
}

func boolsToList(bs []bool) []int32 {
	var out []int32
	for v, b := range bs {
		if b {
			out = append(out, int32(v))
		}
	}
	return out
}

// must returns v, panicking on err; the runs it wraps cannot be cancelled.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
