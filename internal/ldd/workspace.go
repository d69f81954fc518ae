package ldd

import "sync"

// Workspace bundles the reusable scratch state of this package's
// decomposition algorithms: the per-vertex exponential shifts, the
// shifted-label priority queue, and the per-vertex label lists of
// topLabels. Graph searches run on a graph.ParWorkspace instead. Like that
// workspace it is owned by one goroutine at a time; parallel callers hold
// one Workspace per worker.
type Workspace struct {
	shifts []float64
	heap   []labelItem
	labels [][]label
	// clusterID maps source vertex -> dense cluster id for SparseCover
	// (reset to -1 per call).
	clusterID []int32
}

// reserve sizes the per-vertex buffers for an n-vertex graph.
func (ws *Workspace) reserve(n int) {
	if cap(ws.shifts) < n {
		ws.shifts = make([]float64, n)
	}
	for len(ws.labels) < n {
		ws.labels = append(ws.labels, nil)
	}
	if cap(ws.clusterID) < n {
		ws.clusterID = make([]int32, n)
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

// --- label heap -----------------------------------------------------------
//
// A concrete max-heap on labelItem replacing container/heap: pushing an
// interface value boxes the item and was the single largest allocation
// source in the pipeline. The sift routines mirror container/heap
// operation-for-operation so the pop order (and therefore every
// decomposition) is bit-identical to the previous implementation.

func labelLess(a, b labelItem) bool {
	if a.value != b.value {
		return a.value > b.value
	}
	return a.source < b.source
}

func heapInit(h []labelItem) {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		heapDown(h, i, n)
	}
}

func heapPush(h []labelItem, it labelItem) []labelItem {
	h = append(h, it)
	heapUp(h, len(h)-1)
	return h
}

func heapPop(h []labelItem) ([]labelItem, labelItem) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	heapDown(h, 0, n)
	it := h[n]
	return h[:n], it
}

func heapUp(h []labelItem, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !labelLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func heapDown(h []labelItem, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && labelLess(h[j2], h[j1]) {
			j = j2
		}
		if !labelLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
