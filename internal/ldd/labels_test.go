package ldd

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// heapItem is an entry of the reference label heap.
type heapItem struct {
	source int32
	value  float64
	vertex int32
}

func heapLess(a, b heapItem) bool {
	if a.value != b.value {
		return a.value > b.value
	}
	return a.source < b.source
}

func heapUp(h []heapItem, j int) {
	for {
		i := (j - 1) / 2
		if i == j || !heapLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func heapDown(h []heapItem, i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && heapLess(h[j2], h[j1]) {
			j = j2
		}
		if !heapLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// topLabelsHeap is the binary-heap label search topLabels replaced, kept as
// the reference: the same accept rule and push-side prune, with every label
// popped from a max-heap on (value desc, source asc). It also returns how
// many labels it pushed.
func topLabelsHeap(g *graph.Graph, alive []bool, shifts []float64, keep int, slack float64) ([][]label, int) {
	n := g.N()
	out := make([][]label, n)
	var pq []heapItem
	for v := 0; v < n; v++ {
		if alive == nil || alive[v] {
			pq = append(pq, heapItem{source: int32(v), value: shifts[v], vertex: int32(v)})
		}
	}
	for i := len(pq)/2 - 1; i >= 0; i-- {
		heapDown(pq, i, len(pq))
	}
	pushes := 0
	for len(pq) > 0 {
		last := len(pq) - 1
		pq[0], pq[last] = pq[last], pq[0]
		heapDown(pq, 0, last)
		it := pq[last]
		pq = pq[:last]
		ls := out[it.vertex]
		if len(ls) > 0 && it.value < ls[0].value-slack {
			continue
		}
		dup := false
		for _, l := range ls {
			if l.source == it.source {
				dup = true
				break
			}
		}
		if dup || len(ls) >= keep {
			continue
		}
		out[it.vertex] = append(ls, label{source: it.source, value: it.value})
		nv := it.value - 1
		if nv < -slack {
			continue
		}
		for _, w := range g.Neighbors(int(it.vertex)) {
			if alive != nil && !alive[w] {
				continue
			}
			lw := out[w]
			if len(lw) >= keep || (len(lw) > 0 && nv < lw[0].value-slack) {
				continue
			}
			pq = append(pq, heapItem{source: it.source, value: nv, vertex: w})
			heapUp(pq, len(pq)-1)
			pushes++
		}
	}
	return out, pushes
}

// sameLabels reports the first vertex whose label lists differ.
func sameLabels(got, want [][]label) (int, bool) {
	for v := range want {
		if len(got[v]) != len(want[v]) {
			return v, false
		}
		for i := range want[v] {
			if got[v][i] != want[v][i] {
				return v, false
			}
		}
	}
	return -1, true
}

// TestTopLabelsMatchesHeap compares the full label lists of topLabels with
// the heap reference on random graphs: integer, quarter-step and sub-1e-16
// shifts (the last make T-1 round distinct shifts to the same value), with
// and without alive masks, keep 1, 2 and n, slack 0 and 1. One workspace
// serves every case, so stale state from a larger graph would show.
func TestTopLabelsMatchesHeap(t *testing.T) {
	rng := xrand.New(17)
	ws := new(Workspace)
	const trials = 3000
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(60)
		p := rng.Float64() * 0.3
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g := graph.FromEdges(n, edges)
		kind := trial % 4
		shifts := make([]float64, n)
		for v := range shifts {
			switch kind {
			case 0:
				shifts[v] = float64(rng.Intn(4))
			case 1:
				shifts[v] = float64(rng.Intn(16)) / 4
			case 2:
				shifts[v] = float64(rng.Intn(8)) * 1e-17
			default:
				shifts[v] = rng.Exp(0.7)
			}
		}
		var alive []bool
		if trial%3 == 0 {
			alive = make([]bool, n)
			for v := range alive {
				alive[v] = rng.Float64() < 0.75
			}
		}
		keep := []int{1, 2, n}[rng.Intn(3)]
		slack := float64(rng.Intn(2))
		want, _ := topLabelsHeap(g, alive, shifts, keep, slack)
		got, ok := topLabels(g, alive, shifts, keep, slack, ws, nil)
		if !ok {
			t.Fatalf("trial %d: uncancellable search stopped", trial)
		}
		if v, same := sameLabels(got, want); !same {
			t.Fatalf("trial %d (n=%d kind=%d keep=%d slack=%v alive=%v): vertex %d got %v, want %v",
				trial, n, kind, keep, slack, alive != nil, v, got[v], want[v])
		}
	}
}

// TestTopLabelsRoundingTie pins the case a push-order FIFO gets wrong: two
// shifts that differ by less than 1e-16 both round to -1 one hop away, and
// the larger one belongs to the larger source id, so the two labels reach
// vertex 0 in reverse id order.
func TestTopLabelsRoundingTie(t *testing.T) {
	g := graph.FromEdges(3, [][2]int{{0, 1}, {0, 2}})
	shifts := []float64{0, 1e-17, 3e-17}
	if shifts[1]-1 != shifts[2]-1 {
		t.Fatal("shifts do not tie after subtracting 1")
	}
	ws := new(Workspace)
	for _, keep := range []int{2, 3} {
		want, _ := topLabelsHeap(g, nil, shifts, keep, 1)
		got, _ := topLabels(g, nil, shifts, keep, 1, ws, nil)
		if v, same := sameLabels(got, want); !same {
			t.Fatalf("keep %d: vertex %d got %v, want %v", keep, v, got[v], want[v])
		}
		if got[0][1] != (label{source: 1, value: -1}) {
			t.Fatalf("keep %d: vertex 0's second label is %v, want source 1 at -1", keep, got[0][1])
		}
	}
}

// TestTopLabelsWarmZeroAlloc pins the warm path: a repeated keep=2 search
// on a reused workspace allocates nothing, and the FIFO's storage, reused
// across its drains, stays below the number of labels the search pushes.
// The graph is a grid, whose search runs for many hops, so most pushed
// labels are popped long before the last ones are pushed. (On a
// low-diameter graph the first flood alone keeps most pushes pending at
// once, and any queue of them needs about that much room.)
func TestTopLabelsWarmZeroAlloc(t *testing.T) {
	g := gen.Grid(40, 50)
	shifts := make([]float64, g.N())
	enShiftsInto(shifts, g.N(), ENParams{Lambda: 0.5, Seed: 9, Workers: 1})
	ws := new(Workspace)
	topLabels(g, nil, shifts, 2, 1, ws, nil)
	if allocs := testing.AllocsPerRun(5, func() {
		topLabels(g, nil, shifts, 2, 1, ws, nil)
	}); allocs != 0 {
		t.Fatalf("warm topLabels allocated %v times per run", allocs)
	}
	_, pushes := topLabelsHeap(g, nil, shifts, 2, 1)
	t.Logf("FIFO capacity %d, %d labels pushed", cap(ws.fifo), pushes)
	if c := cap(ws.fifo); c > pushes {
		t.Fatalf("FIFO capacity %d exceeds the %d labels pushed", c, pushes)
	}
}
