package ldd

import "sync"

// Workspace bundles the reusable scratch state of this package's
// decomposition algorithms: the per-vertex exponential shifts, and the
// sorted initial labels (with their radix sort buffer), the FIFO of pushed
// labels, the per-vertex label lists and label records of topLabels. Graph
// searches run on a graph.ParWorkspace instead. Like that workspace it is
// owned by one goroutine at a time; parallel callers hold one Workspace per
// worker.
type Workspace struct {
	shifts  []float64
	seeds   []labelItem
	seedTmp []labelItem
	fifo    []labelItem
	labels  [][]label
	vertex  []vertexLabels
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

// reserve sizes the per-vertex buffers for an n-vertex graph.
func (ws *Workspace) reserve(n int) {
	if cap(ws.shifts) < n {
		ws.shifts = make([]float64, n)
	}
	for len(ws.labels) < n {
		ws.labels = append(ws.labels, nil)
	}
	if cap(ws.vertex) < n {
		ws.vertex = make([]vertexLabels, n)
	}
}

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// AcquireWorkspace takes a package workspace from the shared pool; pair
// with ReleaseWorkspace. Used by the solver packages that fan independent
// decompositions out across a worker pool.
func AcquireWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// ReleaseWorkspace returns a workspace to the shared pool. The caller must
// not use the workspace, or any result aliasing it, afterwards.
func ReleaseWorkspace(ws *Workspace) { wsPool.Put(ws) }

// AcquireWorkspaces takes k package workspaces for a worker fleet; pair
// with ReleaseWorkspaces.
func AcquireWorkspaces(k int) []*Workspace {
	out := make([]*Workspace, k)
	for i := range out {
		out[i] = AcquireWorkspace()
	}
	return out
}

// ReleaseWorkspaces returns a fleet to the shared pool.
func ReleaseWorkspaces(wss []*Workspace) {
	for _, ws := range wss {
		ReleaseWorkspace(ws)
	}
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
