package graph_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// randomGraph builds a deterministic pseudo-random graph for the
// equivalence tests: n vertices, ~m edge attempts, plus a sprinkling of
// isolated vertices and a second component.
func randomGraph(n, m int, seed uint64) *graph.Graph {
	rng := xrand.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

func randomAlive(n int, seed uint64) []bool {
	rng := xrand.New(seed)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = rng.Float64() < 0.8
	}
	return alive
}

// --- Reference (naive) implementations ------------------------------------

func refBFSBounded(g *graph.Graph, src, radius int) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if radius >= 0 && int(dist[v]) >= radius {
			continue
		}
		for _, w := range g.Neighbors(int(v)) {
			if dist[w] == graph.Unreachable {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// refBallLayersFromSet is the naive multi-source layered BFS: layer 0 is
// the deduplicated alive subset of seeds in input order, layer j the alive
// vertices at distance exactly j, trailing empty layers trimmed; nil when
// no seed is alive.
func refBallLayersFromSet(g *graph.Graph, seeds []int32, k int, alive []bool) [][]int32 {
	seen := make([]bool, g.N())
	var frontier []int32
	for _, s := range seeds {
		if seen[s] || (alive != nil && !alive[s]) {
			continue
		}
		seen[s] = true
		frontier = append(frontier, s)
	}
	if len(frontier) == 0 {
		return nil
	}
	layers := [][]int32{frontier}
	for d := 0; d < k; d++ {
		var next []int32
		for _, u := range frontier {
			for _, w := range g.Neighbors(int(u)) {
				if seen[w] || (alive != nil && !alive[w]) {
					continue
				}
				seen[w] = true
				next = append(next, w)
			}
		}
		if len(next) == 0 {
			break
		}
		layers = append(layers, next)
		frontier = next
	}
	return layers
}

func refBallLayers(g *graph.Graph, v, k int, alive []bool) [][]int32 {
	if v < 0 || v >= g.N() {
		return nil
	}
	return refBallLayersFromSet(g, []int32{int32(v)}, k, alive)
}

func flatten(layers [][]int32) []int32 {
	if layers == nil {
		return nil
	}
	var out []int32
	for _, l := range layers {
		out = append(out, l...)
	}
	return out
}

func refBallAlive(g *graph.Graph, v, k int, alive []bool) []int32 {
	return flatten(refBallLayers(g, v, k, alive))
}

// refComponents labels the components of the alive-induced subgraph with
// dense ids in order of their lowest vertex; dead vertices get -1.
func refComponents(g *graph.Graph, alive []bool) ([]int32, int) {
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	count := 0
	for s := 0; s < g.N(); s++ {
		if comp[s] != -1 || (alive != nil && !alive[s]) {
			continue
		}
		comp[s] = int32(count)
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(int(v)) {
				if comp[w] == -1 && (alive == nil || alive[w]) {
					comp[w] = int32(count)
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return comp, count
}

// --- Equivalence: kernels and wrappers vs reference semantics -------------

// TestWorkspaceTraversalsMatchReference checks every kernel against the
// naive references at every worker count, both on a *Graph and through an
// opaque View (which takes the general level loop even at one worker), and
// the caller-owned wrappers once per graph.
func TestWorkspaceTraversalsMatchReference(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{1, 0}, {17, 20}, {120, 200}, {300, 260}} {
		g := randomGraph(tc.n, tc.m, uint64(tc.n)*13+1)
		alive := randomAlive(tc.n, uint64(tc.m)+7)
		for _, src := range []int{0, tc.n / 2, tc.n - 1} {
			for _, radius := range []int{-1, 0, 1, 3, tc.n} {
				if got := g.BFSBounded(src, radius); !reflect.DeepEqual(refBFSBounded(g, src, radius), got) {
					t.Fatalf("n=%d: BFSBounded(src=%d r=%d) mismatch", tc.n, src, radius)
				}
			}
			for _, k := range []int{0, 1, 2, 5, tc.n} {
				for _, a := range [][]bool{nil, alive} {
					if got := g.BallAlive(src, k, a); !reflect.DeepEqual(refBallAlive(g, src, k, a), got) {
						t.Fatalf("n=%d: BallAlive(v=%d k=%d) mismatch", tc.n, src, k)
					}
					if got := g.BallLayers(src, k, a); !reflect.DeepEqual(refBallLayers(g, src, k, a), got) {
						t.Fatalf("n=%d: BallLayers(v=%d k=%d) mismatch", tc.n, src, k)
					}
				}
			}
		}
		for _, a := range [][]bool{nil, alive} {
			wantComp, wantCount := refComponents(g, a)
			if gotComp, gotCount := g.ComponentsAlive(a); wantCount != gotCount || !reflect.DeepEqual(wantComp, gotComp) {
				t.Fatalf("n=%d: ComponentsAlive(alive=%v) mismatch", tc.n, a != nil)
			}
		}

		for _, workers := range parWorkerSweep {
			for _, view := range []graph.View{g, opaqueView{g}} {
				pw := new(graph.ParWorkspace)
				label := fmt.Sprintf("workers=%d n=%d view=%T", workers, tc.n, view)
				for _, src := range []int{0, tc.n / 2, tc.n - 1} {
					for _, radius := range []int{-1, 0, 1, 3, tc.n} {
						want := refBFSBounded(g, src, radius)
						if got := int32s(graph.ParBFSBounded(pw, view, src, radius, workers)); !reflect.DeepEqual(want, got) {
							t.Fatalf("%s: ParBFSBounded(src=%d r=%d) mismatch", label, src, radius)
						}
					}
					for _, k := range []int{0, 1, 2, 5, tc.n} {
						for _, a := range [][]bool{nil, alive} {
							want := refBallAlive(g, src, k, a)
							if got := int32s(graph.ParBall(pw, view, src, k, a, workers)); !reflect.DeepEqual(want, got) {
								t.Fatalf("%s: ParBall(v=%d k=%d) mismatch: want %v got %v", label, src, k, want, got)
							}
							wantL := refBallLayers(g, src, k, a)
							if gotL := copyLayers(graph.ParBallLayers(pw, view, src, k, a, workers)); !reflect.DeepEqual(wantL, gotL) {
								t.Fatalf("%s: ParBallLayers(v=%d k=%d) mismatch", label, src, k)
							}
						}
					}
				}
				for _, a := range [][]bool{nil, alive} {
					wantComp, wantCount := refComponents(g, a)
					gotComp, gotCount := graph.ParComponents(pw, view, a, workers)
					if wantCount != gotCount || !reflect.DeepEqual(wantComp, int32s(gotComp)) {
						t.Fatalf("%s: ParComponents(alive=%v) mismatch", label, a != nil)
					}
				}
			}
		}
	}
}

func TestInducedWithWorkspaceMatchesReference(t *testing.T) {
	ws := new(graph.ParWorkspace)
	g := randomGraph(80, 140, 17)
	rng := xrand.New(123)
	for trial := 0; trial < 20; trial++ {
		var vertices []int32
		for v := 0; v < g.N(); v++ {
			if rng.Float64() < 0.5 {
				vertices = append(vertices, int32(v))
			}
		}
		// Duplicates must collapse.
		vertices = append(vertices, vertices...)

		sub, back := g.InducedWithWorkspace(ws, vertices)

		// Reference: dedup in input order, edges via membership.
		seen := map[int32]int32{}
		var wantBack []int32
		for _, v := range vertices {
			if _, ok := seen[v]; ok {
				continue
			}
			seen[v] = int32(len(wantBack))
			wantBack = append(wantBack, v)
		}
		if !reflect.DeepEqual(wantBack, append([]int32(nil), back...)) {
			t.Fatalf("trial %d: newToOld mismatch", trial)
		}
		var wantEdges [][2]int
		for newU, oldU := range wantBack {
			for _, w := range g.Neighbors(int(oldU)) {
				if nw, ok := seen[w]; ok && int32(newU) < nw {
					wantEdges = append(wantEdges, [2]int{newU, int(nw)})
				}
			}
		}
		want := graph.FromEdges(len(wantBack), wantEdges)
		if sub.N() != want.N() || sub.M() != want.M() || !reflect.DeepEqual(sub.EdgeList(), want.EdgeList()) {
			t.Fatalf("trial %d: induced graph mismatch: got %v want %v", trial, sub, want)
		}
		// The induced graph survives traversals on the same workspace.
		graph.ParComponents(ws, sub, nil, 1)
		graph.ParBall(ws, g, 0, 3, nil, 1)
		if !reflect.DeepEqual(sub.EdgeList(), want.EdgeList()) {
			t.Fatalf("trial %d: traversal clobbered the induced graph", trial)
		}
	}
}

// TestBallOutputStableAcrossReuse is the regression test for the reused
// ball output buffer: repeated queries on a warm workspace — interleaved
// with unrelated traversals that share the same buffers — must return
// exactly the same contents as a fresh computation.
func TestBallOutputStableAcrossReuse(t *testing.T) {
	g := randomGraph(200, 320, 3)
	alive := randomAlive(200, 11)
	ws := new(graph.ParWorkspace)
	for v := 0; v < g.N(); v += 7 {
		fresh := refBallAlive(g, v, 4, alive)
		warm := int32s(graph.ParBall(ws, g, v, 4, alive, 1))
		// Interleave other traversals, then re-query.
		graph.ParBFSBounded(ws, g, (v+13)%g.N(), 3, 1)
		graph.ParComponents(ws, g, alive, 1)
		again := int32s(graph.ParBall(ws, g, v, 4, alive, 1))
		if !reflect.DeepEqual(fresh, warm) || !reflect.DeepEqual(fresh, again) {
			t.Fatalf("ball contents changed across workspace reuse at v=%d:\nfresh %v\nwarm  %v\nagain %v", v, fresh, warm, again)
		}
	}
}

// TestWorkspaceComponentsAndMultiBFSMatchWrappers checks that one reused
// workspace gives the wrapper's components and the reference multi-source
// BFS layers (duplicate seeds included) on the same graph.
func TestWorkspaceComponentsAndMultiBFSMatchWrappers(t *testing.T) {
	pw := new(graph.ParWorkspace)
	g := randomGraph(150, 170, 99)
	alive := randomAlive(150, 5)

	wantComp, wantCount := g.ComponentsAlive(alive)
	gotComp, gotCount := graph.ParComponents(pw, g, alive, 1)
	if wantCount != gotCount || !reflect.DeepEqual(wantComp, int32s(gotComp)) {
		t.Fatal("ComponentsAlive mismatch between wrapper and workspace variant")
	}

	sources := []int32{3, 77, 149, 3}
	want := refBallLayersFromSet(g, sources, g.N(), nil)
	if got := copyLayers(graph.ParBallLayersFromSet(pw, g, sources, g.N(), nil, 1)); !reflect.DeepEqual(want, got) {
		t.Fatal("multi-source BFS layers mismatch between reference and workspace variant")
	}
}

// TestParBallOnOverlayView runs the ball kernel over a View that is not a
// *Graph (the shape of a store snapshot's overlay) and checks it against
// the reference ball on the same adjacency.
func TestParBallOnOverlayView(t *testing.T) {
	pw := new(graph.ParWorkspace)
	for _, g := range []*graph.Graph{gen.Path(30), gen.Cycle(25), randomGraph(200, 600, 3)} {
		v := opaqueView{g}
		for _, src := range []int{0, g.N() / 2, g.N() - 1} {
			for k := 0; k <= 4; k++ {
				want := refBallAlive(g, src, k, nil)
				if got := int32s(graph.ParBall(pw, v, src, k, nil, 1)); !reflect.DeepEqual(want, got) {
					t.Fatalf("%v src=%d k=%d: got %v, want %v", g, src, k, got, want)
				}
			}
		}
	}
	for _, src := range []int{-1, 5} {
		if got := graph.ParBall(pw, opaqueView{gen.Path(5)}, src, 2, nil, 1); got != nil {
			t.Fatalf("out-of-range source %d returned %v", src, got)
		}
	}
}

// opaqueView hides a *Graph behind the View interface.
type opaqueView struct{ g *graph.Graph }

func (v opaqueView) N() int                  { return v.g.N() }
func (v opaqueView) Degree(u int) int        { return v.g.Degree(u) }
func (v opaqueView) Neighbors(u int) []int32 { return v.g.Neighbors(u) }

// --- Allocation regressions ------------------------------------------------

// assertZeroAllocKernels pins that a warm workspace runs the single-source
// ball, the seed-set ball, the bounded BFS, the component sweep and the
// induced subgraph without allocating, at the given worker count. The
// graph's frontiers stay below the parallel threshold, so workers > 1 must
// pay nothing for the parallel machinery either.
func assertZeroAllocKernels(t *testing.T, workers int) {
	t.Helper()
	g := randomGraph(400, 700, 21)
	alive := randomAlive(400, 31)
	seeds := []int32{3, 9}
	vertices := make([]int32, 0, g.N()/2)
	for v := 0; v < g.N(); v += 2 {
		vertices = append(vertices, int32(v))
	}
	pw := new(graph.ParWorkspace)
	// Warm every buffer (prefix sums are computed once frontiers pass 64
	// vertices even when the level stays serial).
	graph.ParBFSBounded(pw, g, 0, -1, workers)
	graph.ParBallLayers(pw, g, 0, 8, nil, workers)
	graph.ParBallFromSet(pw, g, seeds, 5, alive, workers)
	graph.ParComponents(pw, g, alive, workers)
	g.InducedWithWorkspace(pw, vertices)

	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"ParBallLayers", func() { graph.ParBallLayers(pw, g, 9, 8, alive, workers) }},
		{"ParBallFromSet", func() { graph.ParBallFromSet(pw, g, seeds, 5, alive, workers) }},
		{"ParBFSBounded", func() { graph.ParBFSBounded(pw, g, 5, -1, workers) }},
		{"ParComponents", func() { graph.ParComponents(pw, g, alive, workers) }},
		{"InducedWithWorkspace", func() { g.InducedWithWorkspace(pw, vertices) }},
	} {
		if n := testing.AllocsPerRun(50, c.fn); n != 0 {
			t.Errorf("%s at workers=%d: %v allocs/op, want 0", c.name, workers, n)
		}
	}
}

func TestZeroAllocTraversalsWarmWorkspace(t *testing.T) { assertZeroAllocKernels(t, 1) }

// --- Concurrency: one workspace per goroutine is race-free -----------------

func TestConcurrentWorkspaces(t *testing.T) {
	g := randomGraph(300, 500, 8)
	alive := randomAlive(300, 9)
	want := make([][]int32, g.N())
	for v := range want {
		want[v] = refBallAlive(g, v, 5, alive)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			ws := graph.AcquireParWorkspace()
			defer graph.ReleaseParWorkspace(ws)
			for v := worker; v < g.N(); v += 8 {
				got := graph.ParBall(ws, g, v, 5, alive, 1)
				if !reflect.DeepEqual(want[v], int32s(got)) {
					t.Errorf("worker %d: ball mismatch at v=%d", worker, v)
					return
				}
				sub, _ := g.InducedWithWorkspace(ws, got)
				if sub.N() != len(got) {
					t.Errorf("worker %d: induced size mismatch at v=%d", worker, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
