package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.N(), g.M())
	}
	var zero Graph
	if zero.N() != 0 {
		t.Fatal("zero value should have 0 vertices")
	}
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	b.AddEdge(0, 5) // out of range
	b.AddEdge(-1, 0)
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("m = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge 0-1 missing")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := complete(5)
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("K5 degree(%d) = %d", v, g.Degree(v))
		}
	}
	nb := g.Neighbors(2)
	want := []int32{0, 1, 3, 4}
	if len(nb) != len(want) {
		t.Fatalf("neighbors(2) = %v", nb)
	}
	for i := range nb {
		if nb[i] != want[i] {
			t.Fatalf("neighbors(2) = %v, want sorted %v", nb, want)
		}
	}
}

func TestEdgesIteration(t *testing.T) {
	g := cycle(6)
	count := 0
	g.Edges(func(u, v int) {
		if u >= v {
			t.Fatalf("edge order violated: %d >= %d", u, v)
		}
		count++
	})
	if count != 6 {
		t.Fatalf("cycle(6) edge count = %d", count)
	}
	if len(g.EdgeList()) != 6 {
		t.Fatal("EdgeList length mismatch")
	}
}

func TestBFSPath(t *testing.T) {
	g := path(10)
	dist := g.BFS(0)
	for v := 0; v < 10; v++ {
		if int(dist[v]) != v {
			t.Fatalf("dist[%d] = %d", v, dist[v])
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatalf("disconnected vertices reachable: %v", dist)
	}
}

func TestBFSBounded(t *testing.T) {
	g := path(10)
	dist := g.BFSBounded(0, 3)
	if dist[3] != 3 {
		t.Fatalf("dist[3] = %d", dist[3])
	}
	if dist[4] != Unreachable {
		t.Fatalf("radius-3 BFS reached distance 4: %v", dist)
	}
}

func TestBall(t *testing.T) {
	g := path(10)
	ball := g.Ball(5, 2)
	if len(ball) != 5 { // {3,4,5,6,7}
		t.Fatalf("ball size = %d, want 5", len(ball))
	}
	if ball[0] != 5 {
		t.Fatal("ball must start at center")
	}
}

func TestBallAlive(t *testing.T) {
	g := path(10)
	alive := make([]bool, 10)
	for i := range alive {
		alive[i] = true
	}
	alive[4] = false // cuts off the left side from 5
	ball := g.BallAlive(5, 5, alive)
	for _, v := range ball {
		if v <= 4 {
			t.Fatalf("ball crossed dead vertex: %v", ball)
		}
	}
	if got := g.BallAlive(4, 3, alive); got != nil {
		t.Fatal("ball of a dead center should be empty")
	}
}

func TestBallLayers(t *testing.T) {
	g := cycle(8)
	layers := g.BallLayers(0, 3, nil)
	wantSizes := []int{1, 2, 2, 2}
	if len(layers) != len(wantSizes) {
		t.Fatalf("layers = %d, want %d", len(layers), len(wantSizes))
	}
	for i, l := range layers {
		if len(l) != wantSizes[i] {
			t.Fatalf("layer %d size = %d, want %d", i, len(l), wantSizes[i])
		}
	}
	// Layers should stop early when the graph is exhausted.
	layers = g.BallLayers(0, 100, nil)
	total := 0
	for _, l := range layers {
		total += len(l)
	}
	if total != 8 {
		t.Fatalf("layers cover %d vertices, want 8", total)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	comp, count := g.Components()
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if comp[0] != comp[2] || comp[3] != comp[4] || comp[0] == comp[3] || comp[5] == comp[0] {
		t.Fatalf("component ids wrong: %v", comp)
	}
}

func TestComponentsAlive(t *testing.T) {
	g := path(5)
	alive := []bool{true, true, false, true, true}
	comp, count := g.ComponentsAlive(alive)
	if count != 2 {
		t.Fatalf("alive components = %d, want 2", count)
	}
	if comp[2] != -1 {
		t.Fatal("dead vertex should have component -1")
	}
	if comp[0] != comp[1] || comp[3] != comp[4] || comp[0] == comp[3] {
		t.Fatalf("alive component structure wrong: %v", comp)
	}
}

func TestInduced(t *testing.T) {
	g := complete(5)
	sub, back := g.Induced([]int32{1, 3, 4, 3}) // duplicate collapses
	if sub.N() != 3 {
		t.Fatalf("induced n = %d", sub.N())
	}
	if sub.M() != 3 {
		t.Fatalf("induced m = %d (K3 expected)", sub.M())
	}
	if len(back) != 3 || back[0] != 1 || back[1] != 3 || back[2] != 4 {
		t.Fatalf("mapping wrong: %v", back)
	}
}

func TestPower(t *testing.T) {
	g := path(5)
	g2 := g.Power(2)
	if !g2.HasEdge(0, 2) || !g2.HasEdge(1, 3) {
		t.Fatal("power graph missing distance-2 edges")
	}
	if g2.HasEdge(0, 3) {
		t.Fatal("power graph has distance-3 edge")
	}
	if g.Power(1) != g {
		t.Fatal("Power(1) should alias the graph")
	}
}

func TestSubdivide(t *testing.T) {
	g := cycle(4)
	s := g.Subdivide(2)
	if s.N() != 4+2*4 {
		t.Fatalf("subdivided n = %d", s.N())
	}
	if s.M() != 3*4 {
		t.Fatalf("subdivided m = %d", s.M())
	}
	// Cycle of 4 subdivided by 2 per edge = cycle of 12; girth 12.
	if girth := s.Girth(); girth != 12 {
		t.Fatalf("subdivided girth = %d, want 12", girth)
	}
	// Subdivide(0) is an isomorphic copy.
	c := g.Subdivide(0)
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatal("Subdivide(0) changed the graph")
	}
}

func TestIsBipartite(t *testing.T) {
	if ok, side := path(6).IsBipartite(); !ok || side == nil {
		t.Fatal("path must be bipartite")
	}
	if ok, _ := cycle(6).IsBipartite(); !ok {
		t.Fatal("even cycle must be bipartite")
	}
	if ok, _ := cycle(5).IsBipartite(); ok {
		t.Fatal("odd cycle must not be bipartite")
	}
	ok, side := path(4).IsBipartite()
	if !ok {
		t.Fatal("path not bipartite?")
	}
	for i := 0; i+1 < 4; i++ {
		if side[i] == side[i+1] {
			t.Fatal("2-coloring invalid")
		}
	}
}

func TestGirth(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{path(10), -1},
		{cycle(5), 5},
		{cycle(12), 12},
		{complete(4), 3},
		{complete(2), -1},
	}
	for i, c := range cases {
		if got := c.g.Girth(); got != c.want {
			t.Fatalf("case %d: girth = %d, want %d", i, got, c.want)
		}
	}
}

func TestGirthPetersen(t *testing.T) {
	// The Petersen graph: 3-regular, girth 5.
	b := NewBuilder(10)
	for i := 0; i < 5; i++ {
		b.AddEdge(i, (i+1)%5)     // outer cycle
		b.AddEdge(5+i, 5+(i+2)%5) // inner pentagram
		b.AddEdge(i, 5+i)         // spokes
	}
	g := b.Build()
	if g.M() != 15 {
		t.Fatalf("petersen m = %d", g.M())
	}
	if got := g.Girth(); got != 5 {
		t.Fatalf("petersen girth = %d, want 5", got)
	}
}

func TestDiameterAndEccentricity(t *testing.T) {
	if d := path(10).Diameter(); d != 9 {
		t.Fatalf("path diameter = %d", d)
	}
	if d := cycle(10).Diameter(); d != 5 {
		t.Fatalf("cycle diameter = %d", d)
	}
	if e := path(10).Eccentricity(5); e != 5 {
		t.Fatalf("eccentricity = %d", e)
	}
}

func TestWeakVsStrongDiameter(t *testing.T) {
	g := cycle(10)
	// S = {0, 5}: weak diameter 5 (through the graph), strong diameter -1
	// (induced subgraph is disconnected).
	s := []int32{0, 5}
	if wd := g.WeakDiameter(s); wd != 5 {
		t.Fatalf("weak diameter = %d", wd)
	}
	if sd := g.StrongDiameter(s); sd != -1 {
		t.Fatalf("strong diameter = %d, want -1", sd)
	}
	// A contiguous arc has equal weak/strong diameter only when the arc is
	// at most half the cycle.
	arc := []int32{0, 1, 2, 3}
	if wd := g.WeakDiameter(arc); wd != 3 {
		t.Fatalf("arc weak diameter = %d", wd)
	}
	if sd := g.StrongDiameter(arc); sd != 3 {
		t.Fatalf("arc strong diameter = %d", sd)
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if g.M() != 2 || !g.HasEdge(1, 2) {
		t.Fatal("FromEdges failed")
	}
}

// Property: for random graphs, dist computed by BFS satisfies the triangle
// inequality through any intermediate vertex.
func TestBFSTriangleProperty(t *testing.T) {
	rng := xrand.New(99)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := 12 + r.Intn(10)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Bernoulli(0.2) {
					b.AddEdge(i, j)
				}
			}
		}
		g := b.Build()
		d0 := g.BFS(0)
		for w := 0; w < n; w++ {
			if d0[w] == Unreachable {
				continue
			}
			dw := g.BFS(w)
			for v := 0; v < n; v++ {
				if d0[v] == Unreachable || dw[v] == Unreachable {
					continue
				}
				if d0[v] > d0[w]+dw[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the union of Ball(v, k) over increasing k is monotone and
// eventually equals v's component.
func TestBallMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 10 + r.Intn(15)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Bernoulli(0.15) {
					b.AddEdge(i, j)
				}
			}
		}
		g := b.Build()
		prev := 0
		for k := 0; k <= n; k++ {
			size := len(g.Ball(0, k))
			if size < prev {
				return false
			}
			prev = size
		}
		// Final ball = component of 0.
		comp, _ := g.Components()
		compSize := 0
		for _, c := range comp {
			if c == comp[0] {
				compSize++
			}
		}
		return prev == compSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBFSGrid(b *testing.B) {
	side := 100
	bb := NewBuilder(side * side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				bb.AddEdge(r*side+c, r*side+c+1)
			}
			if r+1 < side {
				bb.AddEdge(r*side+c, (r+1)*side+c)
			}
		}
	}
	g := bb.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BFS(0)
	}
}
