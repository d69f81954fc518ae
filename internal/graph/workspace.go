package graph

import (
	"math"
	"slices"
	"sync"
)

// ParWorkspace holds the reusable scratch state of every traversal kernel:
// an epoch-stamped visited array (O(1) reset), a distance array with a
// dirty-list reset, a preallocated queue that doubles as the BFS-order
// output buffer, reusable layer headers, the component labels, a dense
// old→new Remap with the storage backing InducedWithWorkspace results, and
// the claim array, degree prefix sums and chunk buffers of the parallel
// level expansion. After a few warm-up calls every kernel performs zero
// allocations on it. The zero value is ready to use.
//
// Ownership rule: a ParWorkspace must be owned by exactly one goroutine at
// a time; the worker goroutines a traversal spawns internally never
// outlive the call. Concurrent traversals must each use their own
// workspace (the graph itself is immutable and freely shared). Results
// returned by the kernels alias workspace storage and are valid only until
// the next call on the same workspace; callers that need to retain a
// result must copy it. Only InducedWithWorkspace's result survives the
// traversal kernels: it lives in buffers they never touch.
type ParWorkspace struct {
	// stamp[v] == stampEpoch means "seen in the current traversal".
	stamp      []int32
	stampEpoch int32

	// dist is all-Unreachable between calls; distDirty records which
	// entries the previous BFS touched so the next call resets
	// O(visited), not O(n).
	dist      []int32
	distDirty []int32

	// queue is the BFS queue; for ball queries the output buffer itself is
	// the queue (BFS order == queue order).
	queue []int32
	out   []int32
	// layers holds reusable layer headers; each header subslices out.
	layers [][]int32

	// comp backs ParComponents results.
	comp []int32

	// remap is the dense old→new vertex id map of InducedWithWorkspace.
	remap Remap

	// Induced storage: the result graph of InducedWithWorkspace is built in
	// place from these buffers.
	newToOld   []int32
	indOffsets []int32
	indAdj     []int32
	indCursor  []int32
	indG       Graph

	// claim[v] = (claimEpoch<<32)|frontierIndex; entries from earlier
	// epochs are stale and lose to any current-epoch claim. Sized lazily
	// by the first level that actually expands in parallel.
	claim      []int64
	claimEpoch int64

	prefix []int64 // frontier degree prefix sums (len frontier+1)
	cuts   []int32 // chunk boundaries into the frontier (len chunks+1)
	bufs   []parChunkBuf
}

var parPool = sync.Pool{New: func() any { return new(ParWorkspace) }}

// AcquireParWorkspace takes a ParWorkspace from the shared pool; pair with
// ReleaseParWorkspace.
func AcquireParWorkspace() *ParWorkspace { return parPool.Get().(*ParWorkspace) }

// ReleaseParWorkspace returns a workspace to the shared pool. The caller
// must not use the workspace, or any result aliasing it, afterwards.
func ReleaseParWorkspace(pw *ParWorkspace) { parPool.Put(pw) }

// AcquireParWorkspaces takes k workspaces for a worker fleet, one per
// worker id of a par fan-out; pair with ReleaseParWorkspaces.
func AcquireParWorkspaces(k int) []*ParWorkspace {
	out := make([]*ParWorkspace, k)
	for i := range out {
		out[i] = AcquireParWorkspace()
	}
	return out
}

// ReleaseParWorkspaces returns a fleet to the shared pool.
func ReleaseParWorkspaces(pws []*ParWorkspace) {
	for _, pw := range pws {
		ReleaseParWorkspace(pw)
	}
}

// reserve grows the vertex-indexed buffers to hold n vertices. The check
// inlines into every kernel call; growth happens in grow.
func (pw *ParWorkspace) reserve(n int) {
	if n > len(pw.stamp) {
		pw.grow(n)
	}
}

func (pw *ParWorkspace) grow(n int) {
	pw.stamp = append(pw.stamp, make([]int32, n-len(pw.stamp))...)
	dist := make([]int32, n)
	for i := copy(dist, pw.dist); i < n; i++ {
		dist[i] = Unreachable
	}
	pw.dist = dist
	if cap(pw.comp) < n {
		pw.comp = make([]int32, n)
	}
}

// beginStamp starts a new traversal epoch and returns the stamp array and
// the fresh epoch value.
func (pw *ParWorkspace) beginStamp() ([]int32, int32) {
	if pw.stampEpoch == math.MaxInt32 {
		clear(pw.stamp)
		pw.stampEpoch = 0
	}
	pw.stampEpoch++
	return pw.stamp, pw.stampEpoch
}

// resetDist restores the all-Unreachable invariant on dist by clearing
// only the entries dirtied by the previous BFS.
func (pw *ParWorkspace) resetDist() {
	for _, v := range pw.distDirty {
		pw.dist[v] = Unreachable
	}
	pw.distDirty = pw.distDirty[:0]
}

// --- Induced and Power ----------------------------------------------------

// InducedWithWorkspace is Induced on reusable storage: the old→new mapping
// uses the workspace's dense Remap instead of a hash map, and the result
// graph is built directly in CSR form inside workspace-owned buffers. Both
// returned values alias the workspace and are valid until its next
// InducedWithWorkspace call; the traversal kernels do not touch these
// buffers, so the result may be traversed on the same workspace.
func (g *Graph) InducedWithWorkspace(ws *ParWorkspace, vertices []int32) (*Graph, []int32) {
	rm := &ws.remap
	rm.Reset(g.N())
	newToOld := ws.newToOld[:0]
	for _, v := range vertices {
		if rm.Has(v) {
			continue
		}
		rm.Set(v, int32(len(newToOld)))
		newToOld = append(newToOld, v)
	}
	ws.newToOld = newToOld
	n2 := len(newToOld)

	offsets := growInt32(ws.indOffsets, n2+1)
	clear(offsets)
	for newU, oldU := range newToOld {
		deg := int32(0)
		for _, w := range g.Neighbors(int(oldU)) {
			if rm.Has(w) {
				deg++
			}
		}
		offsets[newU+1] = deg
	}
	for i := 0; i < n2; i++ {
		offsets[i+1] += offsets[i]
	}
	adj := growInt32(ws.indAdj, int(offsets[n2]))
	cursor := growInt32(ws.indCursor, n2)
	copy(cursor, offsets[:n2])
	for _, oldU := range newToOld {
		newU, _ := rm.Get(oldU)
		for _, w := range g.Neighbors(int(oldU)) {
			if nw, ok := rm.Get(w); ok {
				adj[cursor[newU]] = nw
				cursor[newU]++
			}
		}
	}
	// New ids follow input order, not old-id order, so each adjacency list
	// must be re-sorted to restore the Graph invariant.
	for u := 0; u < n2; u++ {
		slices.Sort(adj[offsets[u]:offsets[u+1]])
	}
	ws.indOffsets, ws.indAdj, ws.indCursor = offsets, adj, cursor
	ws.indG = Graph{offsets: offsets, adj: adj, m: int(offsets[n2]) / 2}
	return &ws.indG, newToOld
}

// PowerWithWorkspace is Power with the per-vertex ball queries running on
// the workspace. The returned graph is freshly allocated (it does not alias
// the workspace), and the workspace's Induced buffers are left untouched.
func (g *Graph) PowerWithWorkspace(ws *ParWorkspace, k int) *Graph {
	if k <= 1 {
		return g
	}
	b := NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		for _, u := range ParBall(ws, g, v, k, nil, 1) {
			if int(u) > v {
				b.AddEdge(v, int(u))
			}
		}
	}
	return b.Build()
}

// growInt32 returns buf resized to n, reusing capacity when possible.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// --- Dense remap ----------------------------------------------------------

// Remap is a dense, epoch-stamped old→new id map: a drop-in replacement for
// the map[int32]int32 pattern with O(1) reset and no hashing. The zero
// value is ready to use.
type Remap struct {
	ids   []int32
	stamp []int32
	epoch int32
}

// Reset clears the map and sizes it for keys in [0, n).
func (r *Remap) Reset(n int) {
	if n > len(r.ids) {
		r.ids = make([]int32, n)
		r.stamp = make([]int32, n)
		r.epoch = 0
	}
	if r.epoch == math.MaxInt32 {
		for i := range r.stamp {
			r.stamp[i] = 0
		}
		r.epoch = 0
	}
	r.epoch++
}

// Set records old → new.
func (r *Remap) Set(old, new int32) {
	r.ids[old] = new
	r.stamp[old] = r.epoch
}

// Get returns the mapping for old and whether it is present.
func (r *Remap) Get(old int32) (int32, bool) {
	if r.stamp[old] != r.epoch {
		return 0, false
	}
	return r.ids[old], true
}

// Has reports whether old has a mapping.
func (r *Remap) Has(old int32) bool { return r.stamp[old] == r.epoch }
