package ldd

// Workspace bundles the reusable scratch state of this package's
// decomposition algorithms: the per-vertex exponential shifts, and the
// sorted initial labels, the FIFO of pushed labels (whose storage is also
// the radix sort's buffer), the per-vertex label lists and label records of
// topLabels. Graph searches run on a graph.ParWorkspace instead. A
// Workspace is owned by one goroutine at a time, and nothing pools it: the
// caller that makes it holds it for the length of its call (a request, a
// netdecomp run, a Blackbox run), parallel callers hold one per worker, and
// it is dropped when the call returns. Its zero value is ready.
type Workspace struct {
	shifts []float64
	seeds  []labelItem
	fifo   []labelItem // also sortSeeds' buffer
	labels [][]label
	room   []label // unused rest of labelRoom's block
	vertex []vertexLabels
	// mark is SparseCover's source -> dense cluster id map, sized on its
	// first use.
	mark []int32
}

// vertexLabels is topLabels' record of one vertex: its best label's value,
// how many labels it holds, and the block stamp of its last push. The
// accept and prune checks read this one record instead of the label list.
type vertexLabels struct {
	best  float64
	count int32
	stamp int32
}

// reserve sizes the per-vertex buffers for an n-vertex graph, each with
// one allocation.
func (ws *Workspace) reserve(n int) {
	if cap(ws.shifts) < n {
		ws.shifts = make([]float64, n)
	}
	if k := n - len(ws.labels); k > 0 {
		ws.labels = append(ws.labels, make([][]label, k)...)
	}
	if cap(ws.vertex) < n {
		ws.vertex = make([]vertexLabels, n)
	}
}

// labelRoomBlock is how many vertices one block of labelRoom serves.
const labelRoomBlock = 1024

// labelRoom returns an empty label list with room for two labels, the most
// Elkin–Neiman keeps, cut from a block shared by many vertices, so that a
// fresh workspace does not allocate once per labelled vertex. A sparse
// cover's list outgrows it only at a vertex in three or more clusters. A
// vertex keeps its list across runs, so a warm workspace never gets here.
func (ws *Workspace) labelRoom() []label {
	if len(ws.room) < 2 {
		ws.room = make([]label, 2*labelRoomBlock)
	}
	ls := ws.room[:0:2]
	ws.room = ws.room[2:]
	return ls
}

// --- label order ----------------------------------------------------------
//
// topLabels pops labels in compareLabels order (value descending, then source
// ascending) without a heap, because that order can be met by merging two
// streams that are already in it:
//
//   - Output depends only on the order in which (value, source) pairs are
//     popped. Pops at different vertices with the same (value, source)
//     commute, because each pop reads and writes only v's list and record
//     and pushes labels of a strictly smaller value.
//   - The initial labels (T_v, v) are built in source order and sorted once
//     by a stable LSD radix sort on a uint64 key that falls as the value
//     rises (seedKey). -0 and +0 get the same key, because compareLabels
//     treats them as equal and an exponential draw can return -0; ±Inf
//     and subnormals keep their IEEE order. Stability leaves equal values
//     in source order, so the result is exactly compareLabels order.
//   - Every pushed label has value popped-1, and pops come out in
//     non-increasing value order, so the pushed labels form a FIFO whose
//     values never increase.
//   - Within one value, the FIFO is in source order only per popped value:
//     rounding can make a-1 == b-1 for two tiny shifts a != b, so a run of
//     equal pushed values can mix sources out of order. A run is sorted by
//     source once its value is >= the head of the initial labels. From then
//     on no pending label can push that value again (every pending value is
//     at most the run's, and x-1 < x), so the run is complete.
//
// Each pop takes the earlier of the two stream heads. The FIFO reuses its
// storage: it resets when it drains and compacts instead of growing when
// most of it has been popped.
//
// Each vertex has one record, vertexLabels: its best value (the first label
// it accepted), its label count and a push stamp. The pop check (list full,
// or below the slack window) and the push prune read only the record; the
// label lists are read for the duplicate-source check and returned as the
// output.
//
// Each pending label is pushed at most once. One (value, source) pair is
// popped as one contiguous block: a source's successive values differ, so
// the pair names a single distance from the source, and the order is total
// on pairs. Every accepted pop of a block pushes the same (value-1,
// source) to its neighbours, so a neighbour shared inside the block would
// get identical FIFO items, and the first copy's fate (accepted, or
// rejected for a full list, the slack window or a duplicate source) would
// decide every later copy's: lists only grow and their best value never
// changes. topLabels stamps the record of w with the block number when it
// pushes to w and skips w while the stamp matches. Removing those copies
// changes no accepted label and leaves the other items in order.
