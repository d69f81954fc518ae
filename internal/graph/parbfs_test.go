package graph_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// parTestGraphs returns the determinism-sweep topologies: a random graph
// whose middle frontiers cross the parallel threshold, a star whose leaf
// frontier is one giant skewed level, a path whose frontiers never leave
// the serial fast path, and a grid in between.
func parTestGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"random": randomGraph(20000, 60000, 42),
		"star":   gen.Star(20000),
		"path":   gen.Path(2000),
		"grid":   gen.Grid(70, 70),
	}
}

var parWorkerSweep = []int{1, 2, 4, 8}

func int32s(s []int32) []int32 { return append([]int32(nil), s...) }

func copyLayers(layers [][]int32) [][]int32 {
	if layers == nil {
		return nil
	}
	out := make([][]int32, len(layers))
	for i, l := range layers {
		out[i] = int32s(l)
	}
	return out
}

// TestParBFSBitIdenticalToSerial pins the kernel contract: every kernel
// returns output bit-identical to the naive serial reference for every
// worker count, on every topology, with and without alive masks.
func TestParBFSBitIdenticalToSerial(t *testing.T) {
	for name, g := range parTestGraphs() {
		n := g.N()
		alive := randomAlive(n, uint64(n)+3)
		sources := []int{0, n / 3, n - 1}
		seeds := []int32{int32(n - 1), int32(n / 2), 1, int32(n / 2)} // dup on purpose

		for _, workers := range parWorkerSweep {
			pw := new(graph.ParWorkspace)
			label := fmt.Sprintf("%s/workers=%d", name, workers)

			for _, src := range sources {
				for _, radius := range []int{-1, 2, 7} {
					want := refBFSBounded(g, src, radius)
					got := int32s(graph.ParBFSBounded(pw, g, src, radius, workers))
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s: ParBFSBounded(src=%d r=%d) differs from reference", label, src, radius)
					}
				}
			}

			for _, a := range [][]bool{nil, alive} {
				for _, radius := range []int{0, 1, 4} {
					wantL := refBallLayersFromSet(g, seeds, radius, a)
					gotL := copyLayers(graph.ParBallLayersFromSet(pw, g, seeds, radius, a, workers))
					if !reflect.DeepEqual(wantL, gotL) {
						t.Fatalf("%s: ParBallLayersFromSet(r=%d alive=%v) differs from reference", label, radius, a != nil)
					}
					gotB := int32s(graph.ParBallFromSet(pw, g, seeds, radius, a, workers))
					if !reflect.DeepEqual(flatten(wantL), gotB) {
						t.Fatalf("%s: ParBallFromSet(r=%d alive=%v) differs from reference", label, radius, a != nil)
					}
				}
				wantL := refBallLayers(g, n/2, 3, a)
				if gotL := copyLayers(graph.ParBallLayers(pw, g, n/2, 3, a, workers)); !reflect.DeepEqual(wantL, gotL) {
					t.Fatalf("%s: ParBallLayers differs from reference", label)
				}
				if gotB := int32s(graph.ParBall(pw, g, n/2, 3, a, workers)); !reflect.DeepEqual(flatten(wantL), gotB) {
					t.Fatalf("%s: ParBall differs from reference", label)
				}

				wantComp, wantCount := refComponents(g, a)
				gotComp, gotCount := graph.ParComponents(pw, g, a, workers)
				if wantCount != gotCount || !reflect.DeepEqual(wantComp, int32s(gotComp)) {
					t.Fatalf("%s: ParComponents(alive=%v) differs from reference", label, a != nil)
				}
			}
		}
	}
}

// TestParWorkspaceReuse pins that results stay correct across workspace
// reuse and epoch rollover pressure: many traversals back to back on one
// workspace, interleaved across modes, at every worker count.
func TestParWorkspaceReuse(t *testing.T) {
	g := randomGraph(5000, 15000, 17)
	alive := randomAlive(g.N(), 23)
	wantComp, wantCount := refComponents(g, alive)
	for _, workers := range parWorkerSweep {
		pw := graph.AcquireParWorkspace()
		for trial := 0; trial < 30; trial++ {
			src := (trial * 131) % g.N()
			if got := int32s(graph.ParBFS(pw, g, src, workers)); !reflect.DeepEqual(refBFSBounded(g, src, -1), got) {
				t.Fatalf("workers=%d trial %d: ParBFS drifted from reference on reuse", workers, trial)
			}
			seeds := []int32{int32(src), int32((src + 7) % g.N())}
			wantB := flatten(refBallLayersFromSet(g, seeds, 3, alive))
			if gotB := int32s(graph.ParBallFromSet(pw, g, seeds, 3, alive, workers)); !reflect.DeepEqual(wantB, gotB) {
				t.Fatalf("workers=%d trial %d: ParBallFromSet drifted from reference on reuse", workers, trial)
			}
			if trial%10 == 0 {
				gotComp, gotCount := graph.ParComponents(pw, g, alive, workers)
				if wantCount != gotCount || !reflect.DeepEqual(wantComp, int32s(gotComp)) {
					t.Fatalf("workers=%d trial %d: ParComponents drifted from reference on reuse", workers, trial)
				}
			}
		}
		graph.ReleaseParWorkspace(pw)
	}
}

// TestParBFSZeroAllocBelowThreshold pins the dispatcher cost contract: on
// a graph whose frontiers stay below the parallel threshold, a warm
// parallel-capable call allocates nothing.
func TestParBFSZeroAllocBelowThreshold(t *testing.T) { assertZeroAllocKernels(t, 4) }

// TestParConcurrentQueries runs parallel traversals from many goroutines
// at once (each with its own ParWorkspace, like concurrent engine
// queries); under -race this doubles as the data-race suite for the
// claim/emit passes.
func TestParConcurrentQueries(t *testing.T) {
	g := randomGraph(20000, 60000, 7)
	want := make(map[int][]int32)
	srcs := []int{0, 999, 5000, 19999}
	for _, s := range srcs {
		want[s] = refBFSBounded(g, s, -1)
	}
	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			pw := graph.AcquireParWorkspace()
			defer graph.ReleaseParWorkspace(pw)
			for trial := 0; trial < 5; trial++ {
				s := srcs[(worker+trial)%len(srcs)]
				got := graph.ParBFS(pw, g, s, 4)
				if !reflect.DeepEqual(want[s], int32s(got)) {
					t.Errorf("worker %d: concurrent ParBFS(src=%d) differs from reference", worker, s)
					return
				}
			}
		}(worker)
	}
	wg.Wait()
}

// --- Benchmarks -------------------------------------------------------------

func benchParGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return randomGraph(200000, 800000, 99)
}

func BenchmarkParBFS(b *testing.B) {
	g := benchParGraph(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pw := new(graph.ParWorkspace)
			graph.ParBFS(pw, g, 0, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.ParBFS(pw, g, i%g.N(), workers)
			}
		})
	}
}

func BenchmarkParComponents(b *testing.B) {
	g := benchParGraph(b)
	alive := randomAlive(g.N(), 5)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pw := new(graph.ParWorkspace)
			graph.ParComponents(pw, g, alive, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.ParComponents(pw, g, alive, workers)
			}
		})
	}
}

func BenchmarkParBallFromSet(b *testing.B) {
	g := benchParGraph(b)
	seeds := []int32{1, 77777, 123456}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pw := new(graph.ParWorkspace)
			graph.ParBallFromSet(pw, g, seeds, 6, nil, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.ParBallFromSet(pw, g, seeds, 6, nil, workers)
			}
		})
	}
}
