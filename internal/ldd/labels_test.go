package ldd

import (
	"context"
	"math"
	"slices"
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

// randomGraph draws G(n, p) from rng.
func randomGraph(rng *xrand.RNG, n int, p float64) *graph.Graph {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// square returns g², which joins every two vertices at distance at most 2:
// the primal graph of minimum dominating set on g.
func square(g *graph.Graph) *graph.Graph {
	var edges [][2]int
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			edges = append(edges, [2]int{u, int(v)})
			for _, w := range g.Neighbors(int(v)) {
				edges = append(edges, [2]int{u, int(w)})
			}
		}
	}
	return graph.FromEdges(g.N(), edges)
}

// signedZeroShifts are the shifts of randomShifts' kind 4: -0 (which an
// exponential draw can return) next to +0, two subnormals and two integers.
var signedZeroShifts = []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1e-310, 1, 2}

// randomShifts draws n shifts of one kind: 0 integer, 1 quarter-step, 2
// sub-1e-16 (T-1 rounds distinct shifts to the same value), 3 exponential,
// 4 signed zeros and subnormals.
func randomShifts(rng *xrand.RNG, n, kind int) []float64 {
	shifts := make([]float64, n)
	for v := range shifts {
		switch kind {
		case 0:
			shifts[v] = float64(rng.Intn(4))
		case 1:
			shifts[v] = float64(rng.Intn(16)) / 4
		case 2:
			shifts[v] = float64(rng.Intn(8)) * 1e-17
		case 4:
			shifts[v] = signedZeroShifts[rng.Intn(len(signedZeroShifts))]
		default:
			shifts[v] = rng.Exp(0.7)
		}
	}
	return shifts
}

// randomAlive keeps each vertex alive with probability 3/4.
func randomAlive(rng *xrand.RNG, n int) []bool {
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = rng.Float64() < 0.75
	}
	return alive
}

// checkAgainstHeap fails the test when topLabels, on the shared workspace,
// differs from the heap reference anywhere.
func checkAgainstHeap(t testing.TB, g *graph.Graph, alive []bool, shifts []float64, keep int, slack float64, ws *Workspace) {
	t.Helper()
	want, _ := topLabelsHeap(g, alive, shifts, keep, slack)
	got, ok := topLabels(g, alive, shifts, keep, slack, ws, nil)
	if !ok {
		t.Fatal("uncancellable search stopped")
	}
	if v, same := sameLabels(got, want); !same {
		t.Fatalf("n=%d keep=%d slack=%v alive=%v shifts=%v: vertex %d got %v, want %v",
			g.N(), keep, slack, alive != nil, shifts, v, got[v], want[v])
	}
}

// TestTopLabelsMatchesHeap compares the full label lists of topLabels with
// the heap reference on random graphs: integer, quarter-step and sub-1e-16
// shifts (the last make T-1 round distinct shifts to the same value),
// exponential draws, and signed zeros with subnormals, with and without
// alive masks, keep 1, 2 and n, slack 0 and 1. One workspace serves every
// case, so stale state from a larger graph would show. The last cases run
// on GNP(3000, 6/2999), so the seed sort also sees thousands of keys.
func TestTopLabelsMatchesHeap(t *testing.T) {
	rng := xrand.New(17)
	ws := new(Workspace)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Float64()*0.3)
		shifts := randomShifts(rng, n, trial%5)
		var alive []bool
		if trial%3 == 0 {
			alive = randomAlive(rng, n)
		}
		keep := []int{1, 2, n}[rng.Intn(3)]
		checkAgainstHeap(t, g, alive, shifts, keep, float64(rng.Intn(2)), ws)
	}
	g := gen.GNP(3000, 6.0/2999, xrand.New(5))
	for kind := 0; kind < 5; kind++ {
		checkAgainstHeap(t, g, nil, randomShifts(rng, g.N(), kind), 2, 1, ws)
		checkAgainstHeap(t, g, randomAlive(rng, g.N()), randomShifts(rng, g.N(), kind), 1, 0, ws)
	}
}

// TestTopLabelsMatchesHeapDense runs the heap comparison on squares of
// small random graphs, where neighbourhoods overlap so much that most
// pushes of a block of equal pops reach a vertex another pop of the block
// already pushed to: the case the push stamps skip. keep is 2 (the
// Elkin–Neiman decision) or n (the sparse cover), and half the trials use
// the rounding-tie shifts.
func TestTopLabelsMatchesHeapDense(t *testing.T) {
	rng := xrand.New(23)
	ws := new(Workspace)
	for trial := 0; trial < 1500; trial++ {
		n := 1 + rng.Intn(50)
		g := square(randomGraph(rng, n, 3/float64(n)))
		kind := 2
		if trial%2 == 1 {
			kind = []int{0, 1, 3, 4}[rng.Intn(4)]
		}
		shifts := randomShifts(rng, n, kind)
		var alive []bool
		if trial%4 == 0 {
			alive = randomAlive(rng, n)
		}
		keep := []int{2, n}[rng.Intn(2)]
		checkAgainstHeap(t, g, alive, shifts, keep, float64(rng.Intn(2)), ws)
	}
}

// FuzzTopLabels decodes a small graph, its shifts (including ties of the
// form k·1e-17, -0 and subnormals), an alive mask, keep and slack from the
// input, and compares topLabels with the heap reference.
func FuzzTopLabels(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0x80, 0x81, 0x83, 0xff, 0, 1, 0, 2})
	// Shifts -0, +0, -0, 1/8 and the smallest subnormal on a path.
	f.Add([]byte{5, 1, 1, 0xc0, 0x00, 0xc0, 0x01, 0xc2, 0, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{6, 0, 1, 4, 8, 0x82, 0x82, 2, 5, 0x3f, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0, 5})
	f.Add([]byte{8, 3, 0, 0x81, 0x81, 0x87, 0x80, 0x83, 0x85, 0x82, 0x86, 0xaa, 0, 1, 1, 2, 0, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			x := int(data[0])
			data = data[1:]
			return x
		}
		n := 1 + next()%24
		keep := []int{1, 2, n, 1 + n/2}[next()%4]
		slack := float64(next() % 2)
		shifts := make([]float64, n)
		for v := range shifts {
			// The top two bits pick one of signedZeroShifts (0xc0 is -0);
			// the top bit alone a rounding-tie shift k·1e-17; otherwise
			// the shift is a multiple of 1/8 below 16.
			if b := next(); b&0xc0 == 0xc0 {
				shifts[v] = signedZeroShifts[b%len(signedZeroShifts)]
			} else if b&0x80 != 0 {
				shifts[v] = float64(b&7) * 1e-17
			} else {
				shifts[v] = float64(b) / 8
			}
		}
		var alive []bool
		if mask := next(); mask != 0 {
			alive = make([]bool, n)
			for v := range alive {
				alive[v] = mask>>(v%8)&1 == 1 || v >= 8 && next()%4 != 0
			}
		}
		var edges [][2]int
		for len(data) > 0 {
			edges = append(edges, [2]int{next() % n, next() % n})
		}
		g := graph.FromEdges(n, edges)
		checkAgainstHeap(t, g, alive, shifts, keep, slack, new(Workspace))
	})
}

// TestSortSeedsMatchesCompareLabels checks the radix seed order against a
// comparison sort by compareLabels: -0 next to +0 in both orders (they
// compare equal, so source breaks the tie), equal values with different
// sources, +Inf, subnormals and negative values, lengths 0, 1 and 2, and
// several thousand keys, some all equal. One workspace serves every case.
func TestSortSeedsMatchesCompareLabels(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	tiny := math.SmallestNonzeroFloat64
	cases := [][]float64{
		{},
		{negZero},
		{1, 2},
		{2, 1},
		{negZero, 0},
		{0, negZero},
		{0, negZero, 0, negZero, tiny, negZero},
		{3, 1, 3, 3, 1, 0, 3},
		{inf, 1, inf, math.MaxFloat64, 0, inf},
		{tiny, 2 * tiny, 1e-310, math.SmallestNonzeroFloat64 * 3, 0, negZero, 1e-300},
		{-1, 0, negZero, -tiny, math.Inf(-1), 1, -math.MaxFloat64, inf},
	}
	rng := xrand.New(41)
	mixed := make([]float64, 5000)
	for i := range mixed {
		switch rng.Intn(4) {
		case 0:
			mixed[i] = rng.Exp(0.5)
		case 1:
			mixed[i] = float64(rng.Intn(6))
		case 2:
			mixed[i] = signedZeroShifts[rng.Intn(len(signedZeroShifts))]
		default:
			mixed[i] = []float64{inf, 1e-310, math.MaxFloat64}[rng.Intn(3)]
		}
	}
	equal := make([]float64, 3000)
	for i := range equal {
		equal[i] = 2.5
	}
	draws := make([]float64, 4000)
	enShiftsInto(draws, len(draws), ENParams{Lambda: 0.5, Seed: 3, Workers: 1})
	cases = append(cases, mixed, equal, draws)

	ws := new(Workspace)
	for i, values := range cases {
		ws.seeds = ws.seeds[:0]
		for v, x := range values {
			ws.seeds = append(ws.seeds, labelItem{value: x, source: int32(v), vertex: int32(v)})
		}
		want := slices.Clone(ws.seeds)
		slices.SortFunc(want, compareLabels)
		got := ws.sortSeeds()
		if len(got) != len(want) {
			t.Fatalf("case %d: %d seeds out of %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].source != want[j].source || got[j].vertex != want[j].vertex ||
				math.Float64bits(got[j].value) != math.Float64bits(want[j].value) {
				t.Fatalf("case %d: position %d holds %+v, want %+v", i, j, got[j], want[j])
			}
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
// low-diameter graph most pushes are still pending when the last one is
// made, so this bound says little there; TestTopLabelsFIFOOnDensePrimal
// bounds the FIFO by the vertex count instead.)
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

// TestTopLabelsFIFOOnDensePrimal bounds the FIFO of one sparse cover in
// the covering solver's preparation (λ = ln(21/20)) on the minimum
// dominating set primal of GNP(1000, 8/999), which is the square of the
// graph. Without the push stamps nearly every push there is a duplicate,
// and the FIFO grew to about 57 items per vertex. With them every vertex
// holds at most one pending copy of a block's label.
func TestTopLabelsFIFOOnDensePrimal(t *testing.T) {
	g := square(gen.GNP(1000, 8.0/999, xrand.New(7)))
	ws := new(Workspace)
	must(SparseCoverCtx(context.Background(), g, nil, ENParams{Lambda: math.Log(21.0 / 20.0), Seed: 1}, ws))
	n := g.N()
	t.Logf("FIFO capacity %d for %d vertices", cap(ws.fifo), n)
	if c := cap(ws.fifo); c > 4*n {
		t.Fatalf("FIFO capacity %d exceeds 4n = %d", c, 4*n)
	}
}
