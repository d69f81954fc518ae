package ldd

import (
	"cmp"
	"context"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/xrand"
)

// ENParams configures the Elkin–Neiman decomposition of Lemma C.1.
type ENParams struct {
	// Lambda is the deletion-rate parameter: each vertex is deleted with
	// probability at most 1 - e^(-Lambda) + ñ^(-3), and each surviving
	// component has (strong) diameter at most 8 ln(ñ)/Lambda.
	Lambda float64
	// NTilde is the globally known upper bound ñ >= n. Zero means n.
	NTilde int
	// Seed drives the per-vertex exponential shifts.
	Seed uint64
	// Workers bounds the worker pool for the per-vertex shift draws (each
	// vertex's shift comes from its own (Seed, vertex, label) stream, so
	// the draws are order-independent and the result is bit-identical for
	// every worker count). <= 0 means GOMAXPROCS; the label-spread search
	// itself is inherently sequential and unaffected.
	Workers int
}

// enShiftLabel is the stream label for the exponential shift draw, shared by
// the oracle and message-passing implementations so they use identical
// randomness.
const enShiftLabel = 0x1dd

// enShiftsInto draws the clipped exponential shifts exactly as Lemma C.1
// prescribes — T_v ~ Exp(lambda), reset to 0 when T_v >= 4 ln(ñ)/lambda —
// into the provided slice (len n).
func enShiftsInto(dst []float64, n int, p ENParams) float64 {
	nTilde := p.NTilde
	if nTilde < n {
		nTilde = n
	}
	maxT := 4 * lnTilde(nTilde) / p.Lambda
	draw := func(v int) {
		rng := xrand.Stream(p.Seed, v, enShiftLabel)
		t := rng.Exp(p.Lambda)
		if t >= maxT {
			t = 0
		}
		dst[v] = t
	}
	if workers := par.Workers(p.Workers); workers > 1 && n >= enParShiftMin {
		// Each draw touches only dst[v]; chunks amortize the scheduling
		// atomics over the cheap per-vertex work.
		par.ForEachChunk(workers, n, 512, func(_, v int) { draw(v) })
		return maxT
	}
	for v := 0; v < n; v++ {
		draw(v)
	}
	return maxT
}

// enParShiftMin is the vertex count below which the shift draws stay
// serial; under it the fan-out costs more than the draws.
const enParShiftMin = 4096

// enShifts draws the shifts into the workspace's buffer.
func enShifts(n int, p ENParams, ws *Workspace) ([]float64, float64) {
	shifts := ws.shifts[:n]
	maxT := enShiftsInto(shifts, n, p)
	return shifts, maxT
}

// enShiftsOwned draws the shifts into a fresh caller-owned slice, for the
// message-passing executors whose machines retain them beyond the lifetime
// of any workspace.
func enShiftsOwned(n int, p ENParams) ([]float64, float64) {
	shifts := make([]float64, n)
	maxT := enShiftsInto(shifts, n, p)
	return shifts, maxT
}

// label is one (source, value) pair: value = T_source - dist(source, v).
type label struct {
	source int32
	value  float64
}

// labelItem is one label offered to a vertex by topLabels: the initial
// label (T_v, v) at v itself, or a label pushed from a neighbour one hop
// further from its source.
type labelItem struct {
	value  float64
	source int32
	vertex int32
}

// compareLabels is topLabels' pop order: value descending, then source
// ascending, so runs are reproducible across executions and executors.
func compareLabels(a, b labelItem) int {
	switch {
	case a.value > b.value:
		return -1
	case a.value < b.value:
		return 1
	}
	return int(a.source) - int(b.source)
}

// topLabels computes, for every alive vertex v, the labels
// m_v(u) = T_u - dist(u, v) from the best `keep` distinct sources, keeping
// only labels with value >= best - slack (labels below can never influence
// the decomposition decisions). Distances are measured in the alive-induced
// subgraph. The result at index v is sorted by value descending; it aliases
// the workspace (the per-vertex slices keep their capacity across calls, so
// warm runs allocate only when a vertex collects more labels than ever
// before).
//
// Labels are popped in compareLabels order from two streams: the initial
// labels, sorted once, and a FIFO of pushed labels (see the workspace doc
// for why the FIFO never needs a heap).
// done is an optional cancellation channel (nil means uncancellable): the
// pop loop polls it every topLabelsCheckMask+1 pops — a coarse stride, so
// the warm path pays one closed-channel poll per ~4k pops — and returns
// (nil, false) when it fires; callers must then discard the workspace
// contents of this call (the workspace itself stays reusable).
func topLabels(g *graph.Graph, alive []bool, shifts []float64, keep int, slack float64, ws *Workspace, done <-chan struct{}) ([][]label, bool) {
	n := g.N()
	ws.reserve(n)
	out := ws.labels[:n]
	st := ws.vertex[:n]
	for v := range out {
		out[v] = out[v][:0]
		st[v] = vertexLabels{stamp: -1}
	}
	seeds := ws.seeds[:0]
	for v := 0; v < n; v++ {
		if alive != nil && !alive[v] {
			continue
		}
		seeds = append(seeds, labelItem{value: shifts[v], source: int32(v), vertex: int32(v)})
	}
	ws.seeds = seeds
	seeds = ws.sortSeeds()
	// fifo[head:] holds the pending pushed labels; fifo[head:sorted] is an
	// equal-value run already put in source order.
	fifo := ws.fifo[:0]
	head, sorted := 0, 0
	// st[w].stamp == blk marks that w already holds a pending copy of the
	// label the current block of accepted pops pushes (see the workspace
	// doc); blk moves on whenever the accepted (value, source) changes.
	blk := int32(-1)
	var blkValue float64
	blkSource := int32(-1)
	pops := 0
	for next := 0; next < len(seeds) || head < len(fifo); {
		// The counter lives inside the done branch so the uncancellable
		// path pays exactly one predictable nil-check per pop.
		if done != nil {
			if pops&topLabelsCheckMask == 0 && stopped(done) {
				ws.fifo = fifo
				return nil, false
			}
			pops++
		}
		fromFIFO := head < len(fifo) && (next == len(seeds) || fifo[head].value >= seeds[next].value)
		if fromFIFO {
			// No pending label can push the head run's value any more, so
			// the run is complete and may be ordered.
			if head == sorted {
				sorted = sortRun(fifo, head)
			}
			fromFIFO = next == len(seeds) || compareLabels(fifo[head], seeds[next]) < 0
		}
		var it labelItem
		if fromFIFO {
			it = fifo[head]
			head++
			if head == len(fifo) {
				fifo = fifo[:0]
				head, sorted = 0, 0
			}
		} else {
			it = seeds[next]
			next++
		}
		v := it.vertex
		sv := &st[v]
		// Discard if v already has `keep` labels or this source, or if the
		// label is out of the slack window of v's best label.
		if int(sv.count) >= keep || (sv.count > 0 && it.value < sv.best-slack) {
			continue
		}
		ls := out[v]
		dup := false
		for _, l := range ls {
			if l.source == it.source {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out[v] = append(ls, label{source: it.source, value: it.value})
		if sv.count == 0 {
			sv.best = it.value
		}
		sv.count++
		if it.source != blkSource || it.value != blkValue {
			blk++
			blkValue, blkSource = it.value, it.source
		}
		// Relax neighbors with value - 1. Values below -slack can never be
		// within slack of any best label (best >= 0 because every alive
		// vertex has its own label T_v >= 0).
		nv := it.value - 1
		if nv < -slack {
			continue
		}
		for _, w := range g.Neighbors(int(v)) {
			if alive != nil && !alive[w] {
				continue
			}
			// Push-side prune of labels the pop loop would provably
			// discard: a vertex's label list only grows and its best value
			// never changes, so "already full" and "below the slack
			// window" both still hold at pop time. This keeps the FIFO
			// short without changing a single accepted label.
			sw := &st[w]
			if sw.stamp == blk || int(sw.count) >= keep || (sw.count > 0 && nv < sw.best-slack) {
				continue
			}
			sw.stamp = blk
			if len(fifo) == cap(fifo) && head >= len(fifo)/2 {
				// Reuse the popped prefix instead of growing; the copy
				// is at most the space it frees.
				fifo = fifo[:copy(fifo, fifo[head:])]
				sorted -= head
				head = 0
			}
			fifo = append(fifo, labelItem{value: nv, source: it.source, vertex: w})
		}
	}
	ws.fifo = fifo
	return out, true
}

// seedKey maps a label value to a radix key that falls as the value rises,
// so ascending keys are compareLabels' value order. -0 and +0 share a key,
// as they compare equal; ±Inf and subnormals fall in place because the
// IEEE bit patterns of same-signed values order like their magnitudes.
func seedKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b == 1<<63 {
		b = 0 // -0
	}
	// Negative values keep their bits (a larger magnitude is a larger
	// key); non-negative ones flip all but the sign bit.
	return b ^ (^uint64(int64(b)>>63) >> 1)
}

// sortSeeds puts ws.seeds, built in source order, in compareLabels order
// with a stable LSD radix sort on seedKey, one byte a pass; a byte on which
// every key agrees is skipped. Stability keeps equal values in source
// order, which is compareLabels' tie-break. It returns the sorted seeds,
// which it leaves in ws.seeds.
func (ws *Workspace) sortSeeds() []labelItem {
	src := ws.seeds
	n := len(src)
	if n < 2 {
		return src
	}
	if cap(ws.seedTmp) < n {
		ws.seedTmp = make([]labelItem, n)
	}
	dst := ws.seedTmp[:n]
	var count [8][256]int32
	for _, it := range src {
		k := seedKey(it.value)
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	first := seedKey(src[0].value)
	for d := range count {
		shift := 8 * uint(d)
		c := &count[d]
		if c[byte(first>>shift)] == int32(n) {
			continue
		}
		var sum int32
		for b, k := range c {
			c[b] = sum
			sum += k
		}
		for _, it := range src {
			b := byte(seedKey(it.value) >> shift)
			dst[c[b]] = it
			c[b]++
		}
		src, dst = dst, src
	}
	ws.seeds, ws.seedTmp = src, dst
	return src
}

// sortRun puts the equal-value run starting at fifo[head] in source order
// and returns its end. Pops of one value push in source order, so a run is
// already ordered unless T-1 rounded two different popped values to the
// same pushed value.
func sortRun(fifo []labelItem, head int) int {
	val := fifo[head].value
	end, ordered := head+1, true
	for ; end < len(fifo) && fifo[end].value == val; end++ {
		ordered = ordered && fifo[end-1].source <= fifo[end].source
	}
	if !ordered {
		slices.SortFunc(fifo[head:end], func(a, b labelItem) int {
			return cmp.Compare(a.source, b.source)
		})
	}
	return end
}

// topLabelsCheckMask sets the cancellation polling stride of topLabels:
// one non-blocking channel poll every 4096 label pops.
const topLabelsCheckMask = 4095

// stopped polls a done channel without blocking.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// ElkinNeiman runs the Lemma C.1 decomposition on the alive-induced
// subgraph of g (alive == nil means the whole graph). Each vertex is deleted
// when its second-best shifted source comes within 1 of its best; otherwise
// it joins the best source's cluster. Rounds are charged as the broadcast
// horizon ceil(maxT) (each vertex broadcasts T_v through ⌊T_v⌋ hops).
func ElkinNeiman(g *graph.Graph, alive []bool, p ENParams) *Decomposition {
	ws := AcquireWorkspace()
	d := ElkinNeimanWS(g, alive, p, ws)
	ReleaseWorkspace(ws)
	return d
}

// ElkinNeimanCtx is ElkinNeiman with cancellation (see ChangLiCtx).
func ElkinNeimanCtx(ctx context.Context, g *graph.Graph, alive []bool, p ENParams) (*Decomposition, error) {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	return ElkinNeimanWSCtx(ctx, g, alive, p, ws)
}

// ElkinNeimanWS is ElkinNeiman running on a caller-owned Workspace; loops
// that run many decompositions (preparation phases, netdecomp) hold one
// workspace per goroutine and call this directly.
func ElkinNeimanWS(g *graph.Graph, alive []bool, p ENParams, ws *Workspace) *Decomposition {
	d, _ := elkinNeimanWS(g, alive, p, ws, nil)
	return d
}

// ElkinNeimanWSCtx is ElkinNeimanWS with cancellation.
func ElkinNeimanWSCtx(ctx context.Context, g *graph.Graph, alive []bool, p ENParams, ws *Workspace) (*Decomposition, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d, ok := elkinNeimanWS(g, alive, p, ws, ctx.Done())
	if !ok {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}
	return d, nil
}

func elkinNeimanWS(g *graph.Graph, alive []bool, p ENParams, ws *Workspace, done <-chan struct{}) (*Decomposition, bool) {
	n := g.N()
	ws.reserve(n)
	shifts, maxT := enShifts(n, p, ws)
	labels, ok := topLabels(g, alive, shifts, 2, 1.0, ws, done)
	if !ok {
		return nil, false
	}
	clusterOf := make([]int32, n)
	for v := 0; v < n; v++ {
		clusterOf[v] = Unclustered
		if alive != nil && !alive[v] {
			continue
		}
		ls := labels[v]
		if len(ls) == 0 {
			continue // isolated dead region; cannot happen for alive v
		}
		if len(ls) >= 2 && ls[1].value >= ls[0].value-1 {
			continue // deleted
		}
		clusterOf[v] = ls[0].source
	}
	num := relabel(clusterOf)
	return &Decomposition{
		ClusterOf:   clusterOf,
		NumClusters: num,
		Rounds:      int(math.Ceil(maxT)),
	}, true
}

// MPXResult is the output of the Miller–Peng–Xu edge decomposition: every
// vertex joins the cluster of its best shifted source (no vertex deletions)
// and an edge is cut when its endpoints land in different clusters.
type MPXResult struct {
	Decomposition
	// CutEdges lists the deleted (inter-cluster) edges.
	CutEdges [][2]int
}

// MPX runs the Miller–Peng–Xu decomposition with parameter lambda on the
// whole graph. The expected number of cut edges is O(lambda * m); Claim C.2
// exhibits graphs where the realized count exceeds any constant fraction
// with probability Omega(lambda).
func MPX(g *graph.Graph, p ENParams) *MPXResult {
	r, _ := mpx(g, p, nil)
	return r
}

// MPXCtx is MPX with cancellation (see ChangLiCtx).
func MPXCtx(ctx context.Context, g *graph.Graph, p ENParams) (*MPXResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, ok := mpx(g, p, ctx.Done())
	if !ok {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}
	return r, nil
}

func mpx(g *graph.Graph, p ENParams, done <-chan struct{}) (*MPXResult, bool) {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	n := g.N()
	ws.reserve(n)
	shifts, maxT := enShifts(n, p, ws)
	labels, ok := topLabels(g, nil, shifts, 1, 0, ws, done)
	if !ok {
		return nil, false
	}
	clusterOf := make([]int32, n)
	for v := 0; v < n; v++ {
		clusterOf[v] = Unclustered
		if len(labels[v]) > 0 {
			clusterOf[v] = labels[v][0].source
		}
	}
	res := &MPXResult{}
	g.Edges(func(u, v int) {
		if clusterOf[u] != clusterOf[v] {
			res.CutEdges = append(res.CutEdges, [2]int{u, v})
		}
	})
	num := relabel(clusterOf)
	res.Decomposition = Decomposition{
		ClusterOf:   clusterOf,
		NumClusters: num,
		Rounds:      int(math.Ceil(maxT)),
	}
	return res, true
}
