package matching

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// bruteMaxMatching enumerates all subsets of edges; exponential, tiny n only.
func bruteMaxMatching(g *graph.Graph) int {
	edges := g.EdgeList()
	best := 0
	var rec func(i int, used []bool, count int)
	rec = func(i int, used []bool, count int) {
		if count > best {
			best = count
		}
		if i == len(edges) {
			return
		}
		rec(i+1, used, count)
		u, v := edges[i][0], edges[i][1]
		if !used[u] && !used[v] {
			used[u], used[v] = true, true
			rec(i+1, used, count+1)
			used[u], used[v] = false, false
		}
	}
	rec(0, make([]bool, g.N()), 0)
	return best
}

func TestCompleteBipartite(t *testing.T) {
	g := gen.CompleteBipartite(4, 7)
	r := BipartiteAuto(g)
	if r == nil {
		t.Fatal("bipartite graph rejected")
	}
	if r.Size != 4 {
		t.Fatalf("matching size = %d, want 4", r.Size)
	}
	if !VerifyMatching(g, r.Mate) {
		t.Fatal("invalid matching")
	}
	if len(r.MinVertexCover) != 4 {
		t.Fatalf("cover size = %d, want 4 (König)", len(r.MinVertexCover))
	}
	if len(r.MaxIndependentSet) != 7 {
		t.Fatalf("MIS size = %d, want 7", len(r.MaxIndependentSet))
	}
	if !VerifyVertexCover(g, r.MinVertexCover) {
		t.Fatal("cover invalid")
	}
	if !VerifyIndependentSet(g, r.MaxIndependentSet) {
		t.Fatal("independent set invalid")
	}
}

func TestEvenCycle(t *testing.T) {
	g := gen.Cycle(10)
	r := BipartiteAuto(g)
	if r == nil || r.Size != 5 {
		t.Fatalf("C10 matching = %v", r)
	}
	if len(r.MaxIndependentSet) != 5 {
		t.Fatalf("C10 MIS = %d", len(r.MaxIndependentSet))
	}
}

func TestPath(t *testing.T) {
	g := gen.Path(7)
	r := BipartiteAuto(g)
	if r.Size != 3 {
		t.Fatalf("P7 matching = %d", r.Size)
	}
	if len(r.MaxIndependentSet) != 4 {
		t.Fatalf("P7 MIS = %d", len(r.MaxIndependentSet))
	}
}

func TestNonBipartiteRejected(t *testing.T) {
	if BipartiteAuto(gen.Cycle(5)) != nil {
		t.Fatal("odd cycle accepted")
	}
	// Explicit bad coloring on an even cycle.
	g := gen.Cycle(4)
	side := []int8{0, 0, 1, 1}
	if Bipartite(g, side) != nil {
		t.Fatal("invalid coloring accepted")
	}
}

func TestIgnoredVertices(t *testing.T) {
	g := gen.Path(5)
	// Remove the middle vertex; two disjoint edges remain.
	side := []int8{0, 1, -1, 0, 1}
	r := Bipartite(g, side)
	if r == nil {
		t.Fatal("masked graph rejected")
	}
	if r.Size != 2 {
		t.Fatalf("masked matching = %d", r.Size)
	}
	for _, v := range r.MaxIndependentSet {
		if v == 2 {
			t.Fatal("ignored vertex appeared in output")
		}
	}
}

func TestEmptyAndEdgeless(t *testing.T) {
	g := graph.NewBuilder(4).Build()
	r := BipartiteAuto(g)
	if r.Size != 0 {
		t.Fatal("edgeless matching nonzero")
	}
	if len(r.MaxIndependentSet) != 4 {
		t.Fatal("edgeless MIS should be everything")
	}
	if len(r.MinVertexCover) != 0 {
		t.Fatal("edgeless cover should be empty")
	}
}

func TestAgainstBruteForce(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 60; trial++ {
		// Random bipartite graph with sides up to 5+5.
		a := 2 + rng.Intn(4)
		b := 2 + rng.Intn(4)
		gb := graph.NewBuilder(a + b)
		for i := 0; i < a; i++ {
			for j := 0; j < b; j++ {
				if rng.Bernoulli(0.4) {
					gb.AddEdge(i, a+j)
				}
			}
		}
		g := gb.Build()
		r := BipartiteAuto(g)
		if r == nil {
			t.Fatal("bipartite graph rejected")
		}
		want := bruteMaxMatching(g)
		if r.Size != want {
			t.Fatalf("trial %d: HK = %d, brute = %d", trial, r.Size, want)
		}
		// König duality: |cover| == matching size; complement independent.
		if len(r.MinVertexCover) != want {
			t.Fatalf("trial %d: cover %d != matching %d", trial, len(r.MinVertexCover), want)
		}
		if !VerifyMatching(g, r.Mate) || !VerifyVertexCover(g, r.MinVertexCover) ||
			!VerifyIndependentSet(g, r.MaxIndependentSet) {
			t.Fatalf("trial %d: verification failed", trial)
		}
		if len(r.MaxIndependentSet)+len(r.MinVertexCover) != g.N() {
			t.Fatalf("trial %d: MIS + cover != n", trial)
		}
	}
}

func TestVerifyMatchingRejectsBad(t *testing.T) {
	g := gen.Path(4)
	mate := []int32{1, 0, -1, -1}
	if !VerifyMatching(g, mate) {
		t.Fatal("valid matching rejected")
	}
	mate = []int32{2, -1, 0, -1} // 0-2 not an edge
	if VerifyMatching(g, mate) {
		t.Fatal("non-edge matching accepted")
	}
	mate = []int32{1, 2, 1, -1} // asymmetric
	if VerifyMatching(g, mate) {
		t.Fatal("asymmetric matching accepted")
	}
}

func TestLargeGrid(t *testing.T) {
	// 40x40 grid: perfect matching exists (1600 even), MIS = 800.
	g := gen.Grid(40, 40)
	r := BipartiteAuto(g)
	if r.Size != 800 {
		t.Fatalf("grid matching = %d, want 800", r.Size)
	}
	if len(r.MaxIndependentSet) != 800 {
		t.Fatalf("grid MIS = %d, want 800", len(r.MaxIndependentSet))
	}
}

func BenchmarkHopcroftKarpGrid(b *testing.B) {
	g := gen.Grid(60, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BipartiteAuto(g)
	}
}
