package graph

import (
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// This file implements level-synchronous parallel BFS over any View (CSR
// graphs and store-snapshot overlays alike) with merges that are
// bit-identical to the serial traversals for every worker count.
//
// Each level expands in two passes over the same degree-balanced frontier
// chunks:
//
//  1. Claim: every worker scans its chunk and, for each undiscovered
//     neighbor, atomically lowers that neighbor's claim word to
//     (epoch<<32)|frontierIndex. The minimum frontier index wins — exactly
//     the vertex that would have discovered the neighbor first in the
//     serial scan.
//  2. Emit: after a barrier, every worker rescans its chunk and appends a
//     neighbor to its chunk-local buffer only where its own frontier index
//     owns the claim, stamping distances/marks as the serial code would.
//     Each vertex has exactly one owner, so the writes are race-free.
//
// Concatenating the chunk buffers in chunk order then reproduces the
// serial discovery order — within a chunk the scan order is the serial
// order, and chunks partition the frontier contiguously — so downstream
// seeded decisions see identical inputs no matter how many workers ran.
//
// Frontiers are partitioned by degree prefix sums, not vertex counts, so a
// star-like frontier (one hub holding most of the edges) still splits its
// edge work across workers. Levels whose total degree is below
// ParLevelEdgeThreshold expand serially inside the same call: the output
// is identical either way, and tiny graphs or frontier tails never pay
// goroutine or atomics overhead (a warm below-threshold ParBFS allocates
// nothing, which the workspace test suite pins).

// ParLevelEdgeThreshold is the frontier degree sum below which a level
// expands serially even when more workers are available. Parallel
// expansion costs two goroutine fan-outs plus one atomic per discovered
// edge; under ~4k edges that overhead beats the win on every box we have
// measured.
const ParLevelEdgeThreshold = 4096

// parMinFrontier is the frontier size below which the dispatcher skips
// even the degree prefix sum and goes straight to the serial expansion.
const parMinFrontier = 64

// parChunkBuf is one chunk's next-frontier buffer, padded so the slice
// headers of adjacent chunks never share a cache line while workers append
// concurrently.
type parChunkBuf struct {
	buf []int32
	_   [40]byte
}

// ParWorkspace bundles the scratch state of the parallel traversals: the
// serial Workspace substrate (distance/stamp arrays, queue and output
// buffers — parallel results alias it exactly like serial ones), the
// atomic claim array, the degree prefix sums, and the per-chunk output
// buffers. Like Workspace it is owned by one goroutine at a time; the
// worker goroutines a traversal spawns internally never outlive the call.
type ParWorkspace struct {
	ws *Workspace

	// claim[v] = (epoch<<32)|frontierIndex; entries from earlier epochs
	// are stale and lose to any current-epoch claim.
	claim []int64
	epoch int64

	prefix []int64 // frontier degree prefix sums (len frontier+1)
	cuts   []int32 // chunk boundaries into the frontier (len chunks+1)
	bufs   []parChunkBuf
}

// NewParWorkspace returns an empty ParWorkspace; buffers grow on first
// use.
func NewParWorkspace() *ParWorkspace {
	return &ParWorkspace{ws: NewWorkspace(0)}
}

// parPool backs AcquireParWorkspace like wsPool backs AcquireWorkspace.
var parPool = sync.Pool{New: func() any { return NewParWorkspace() }}

// AcquireParWorkspace takes a ParWorkspace from the shared pool; pair with
// ReleaseParWorkspace.
func AcquireParWorkspace() *ParWorkspace { return parPool.Get().(*ParWorkspace) }

// ReleaseParWorkspace returns a workspace to the shared pool. The caller
// must not use the workspace, or any result aliasing it, afterwards.
func ReleaseParWorkspace(pw *ParWorkspace) { parPool.Put(pw) }

// reserve sizes the claim array for n vertices and rolls the claim epoch.
func (pw *ParWorkspace) reserve(n int) {
	pw.ws.Reserve(n)
	if n > len(pw.claim) {
		pw.claim = append(pw.claim, make([]int64, n-len(pw.claim))...)
	}
	// Rolling the epoch invalidates every stale claim in O(1). The epoch
	// only ever grows within a traversal (one bump per parallel level), so
	// a reset is needed at most once every ~2^30 levels.
	if pw.epoch >= 1<<30 {
		for i := range pw.claim {
			pw.claim[i] = 0
		}
		pw.epoch = 0
	}
}

// nextEpoch starts a new claim epoch and returns its base word.
func (pw *ParWorkspace) nextEpoch() int64 {
	pw.epoch++
	return pw.epoch << 32
}

// claimMin atomically lowers *p to word unless *p already holds a
// same-epoch claim with an equal or smaller frontier index. base is the
// epoch's base word; anything below it is stale and always loses.
func claimMin(p *int64, base, word int64) {
	for {
		cur := atomic.LoadInt64(p)
		if cur >= base && cur <= word {
			return
		}
		if atomic.CompareAndSwapInt64(p, cur, word) {
			return
		}
	}
}

// partition computes the degree prefix sums of frontier f and cuts it into
// up to `workers` contiguous chunks of roughly equal degree. It returns
// false when the frontier's total degree is below ParLevelEdgeThreshold —
// the level should expand serially.
func (pw *ParWorkspace) partition(g View, f []int32, workers int) bool {
	if len(f) < parMinFrontier {
		return false
	}
	prefix := pw.prefix
	if cap(prefix) < len(f)+1 {
		prefix = make([]int64, len(f)+1)
	}
	prefix = prefix[:len(f)+1]
	prefix[0] = 0
	for i, v := range f {
		prefix[i+1] = prefix[i] + int64(g.Degree(int(v)))
	}
	pw.prefix = prefix
	total := prefix[len(f)]
	if total < ParLevelEdgeThreshold {
		return false
	}
	chunks := workers
	if int64(chunks) > total {
		chunks = int(total)
	}
	cuts := pw.cuts
	if cap(cuts) < chunks+1 {
		cuts = make([]int32, chunks+1)
	}
	cuts = cuts[:chunks+1]
	cuts[0] = 0
	// cut[k] = first index whose prefix reaches k/chunks of the total. A
	// hub vertex heavier than a whole share simply produces empty chunks
	// after it, which cost nothing.
	idx := 0
	for k := 1; k < chunks; k++ {
		want := total * int64(k) / int64(chunks)
		for idx < len(f) && prefix[idx] < want {
			idx++
		}
		cuts[k] = int32(idx)
	}
	cuts[chunks] = int32(len(f))
	pw.cuts = cuts
	if len(pw.bufs) < chunks {
		pw.bufs = append(pw.bufs, make([]parChunkBuf, chunks-len(pw.bufs))...)
	}
	return true
}

// mergeChunks appends the chunk buffers to q in chunk order — the
// deterministic merge that restores serial discovery order.
func (pw *ParWorkspace) mergeChunks(q []int32) []int32 {
	for c := range pw.cuts[:len(pw.cuts)-1] {
		q = append(q, pw.bufs[c].buf...)
	}
	return q
}

// --- distance-mode expansion (BFS, MultiBFS) -------------------------------

// expandLevelDist expands frontier f — all at the same distance — into q,
// stamping dist (and from, when non-nil) exactly like the serial BFS.
func (pw *ParWorkspace) expandLevelDist(g View, f, q []int32, dist, from []int32, workers int) []int32 {
	if workers <= 1 || !pw.partition(g, f, workers) {
		for _, v := range f {
			d := dist[v] + 1
			for _, w := range g.Neighbors(int(v)) {
				if dist[w] == Unreachable {
					dist[w] = d
					if from != nil {
						from[w] = from[v]
					}
					q = append(q, w)
				}
			}
		}
		return q
	}
	claim, base := pw.claim, pw.nextEpoch()
	cuts := pw.cuts
	chunks := len(cuts) - 1
	par.ForEach(chunks, chunks, func(_, c int) {
		for idx := int(cuts[c]); idx < int(cuts[c+1]); idx++ {
			word := base | int64(idx)
			for _, w := range g.Neighbors(int(f[idx])) {
				if dist[w] == Unreachable {
					claimMin(&claim[w], base, word)
				}
			}
		}
	})
	par.ForEach(chunks, chunks, func(_, c int) {
		buf := pw.bufs[c].buf[:0]
		for idx := int(cuts[c]); idx < int(cuts[c+1]); idx++ {
			v := f[idx]
			word := base | int64(idx)
			d := dist[v] + 1
			for _, w := range g.Neighbors(int(v)) {
				if claim[w] == word {
					dist[w] = d
					if from != nil {
						from[w] = from[v]
					}
					buf = append(buf, w)
				}
			}
		}
		pw.bufs[c].buf = buf
	})
	return pw.mergeChunks(q)
}

// --- stamp-mode expansion (balls, layers) ----------------------------------

// expandLevelStamp expands frontier f into out under the workspace's
// current stamp epoch, honoring the alive mask, exactly like the serial
// ballLayersCore level step.
func (pw *ParWorkspace) expandLevelStamp(g View, f, out []int32, seen []int32, epoch int32, alive []bool, workers int) []int32 {
	if workers <= 1 || !pw.partition(g, f, workers) {
		for _, v := range f {
			for _, w := range g.Neighbors(int(v)) {
				if seen[w] == epoch || (alive != nil && !alive[w]) {
					continue
				}
				seen[w] = epoch
				out = append(out, w)
			}
		}
		return out
	}
	claim, base := pw.claim, pw.nextEpoch()
	cuts := pw.cuts
	chunks := len(cuts) - 1
	par.ForEach(chunks, chunks, func(_, c int) {
		for idx := int(cuts[c]); idx < int(cuts[c+1]); idx++ {
			word := base | int64(idx)
			for _, w := range g.Neighbors(int(f[idx])) {
				if seen[w] == epoch || (alive != nil && !alive[w]) {
					continue
				}
				claimMin(&claim[w], base, word)
			}
		}
	})
	par.ForEach(chunks, chunks, func(_, c int) {
		buf := pw.bufs[c].buf[:0]
		for idx := int(cuts[c]); idx < int(cuts[c+1]); idx++ {
			word := base | int64(idx)
			for _, w := range g.Neighbors(int(f[idx])) {
				if claim[w] == word {
					seen[w] = epoch
					buf = append(buf, w)
				}
			}
		}
		pw.bufs[c].buf = buf
	})
	return pw.mergeChunks(out)
}

// --- component-mode expansion ----------------------------------------------

// expandLevelComp expands frontier f into q, labeling discovered vertices
// with component id in comp, exactly like the serial component sweep.
func (pw *ParWorkspace) expandLevelComp(g View, f, q []int32, comp []int32, id int32, alive []bool, workers int) []int32 {
	if workers <= 1 || !pw.partition(g, f, workers) {
		for _, v := range f {
			for _, w := range g.Neighbors(int(v)) {
				if comp[w] == -1 && (alive == nil || alive[w]) {
					comp[w] = id
					q = append(q, w)
				}
			}
		}
		return q
	}
	claim, base := pw.claim, pw.nextEpoch()
	cuts := pw.cuts
	chunks := len(cuts) - 1
	par.ForEach(chunks, chunks, func(_, c int) {
		for idx := int(cuts[c]); idx < int(cuts[c+1]); idx++ {
			word := base | int64(idx)
			for _, w := range g.Neighbors(int(f[idx])) {
				if comp[w] == -1 && (alive == nil || alive[w]) {
					claimMin(&claim[w], base, word)
				}
			}
		}
	})
	par.ForEach(chunks, chunks, func(_, c int) {
		buf := pw.bufs[c].buf[:0]
		for idx := int(cuts[c]); idx < int(cuts[c+1]); idx++ {
			word := base | int64(idx)
			for _, w := range g.Neighbors(int(f[idx])) {
				if claim[w] == word {
					comp[w] = id
					buf = append(buf, w)
				}
			}
		}
		pw.bufs[c].buf = buf
	})
	return pw.mergeChunks(q)
}

// --- public traversals -----------------------------------------------------

// ParBFSBounded computes distances from src up to radius (negative =
// unbounded) over g, expanding each frontier level across up to `workers`
// goroutines (<= 0 means GOMAXPROCS). The result is bit-identical to
// BFSBoundedWithWorkspace for every worker count and aliases the
// workspace; it is valid until the workspace's next use.
func ParBFSBounded(pw *ParWorkspace, g View, src, radius, workers int) []int32 {
	workers = par.Workers(workers)
	n := g.N()
	pw.reserve(n)
	ws := pw.ws
	ws.resetDist()
	dist := ws.dist[:n]
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	q := append(ws.queue[:0], int32(src))
	levelStart := 0
	for depth := 0; (radius < 0 || depth < radius) && levelStart < len(q); depth++ {
		f := q[levelStart:len(q):len(q)]
		levelStart = len(q)
		q = pw.expandLevelDist(g, f, q, dist, nil, workers)
	}
	// Like the serial BFS: the dirtied dist entries are exactly the queue
	// contents, so swap the buffers instead of copying.
	ws.queue, ws.distDirty = ws.distDirty[:0], q
	return dist
}

// ParBFS is ParBFSBounded with no radius bound.
func ParBFS(pw *ParWorkspace, g View, src, workers int) []int32 {
	return ParBFSBounded(pw, g, src, -1, workers)
}

// ParMultiBFS computes nearest-source distances and source provenance from
// a seed set, bit-identical to MultiBFSWithWorkspace for every worker
// count (ties break toward the earlier queue position, exactly as the
// serial scan settles them). Both results alias the workspace.
func ParMultiBFS(pw *ParWorkspace, g View, sources []int, workers int) (dist []int32, from []int32) {
	workers = par.Workers(workers)
	n := g.N()
	pw.reserve(n)
	ws := pw.ws
	ws.resetDist()
	dist = ws.dist[:n]
	from = ws.from[:n]
	q := ws.queue[:0]
	for _, s := range sources {
		if s < 0 || s >= n || dist[s] == 0 {
			continue
		}
		dist[s] = 0
		from[s] = int32(s)
		q = append(q, int32(s))
	}
	levelStart := 0
	for levelStart < len(q) {
		f := q[levelStart:len(q):len(q)]
		levelStart = len(q)
		q = pw.expandLevelDist(g, f, q, dist, from, workers)
	}
	ws.queue, ws.distDirty = ws.distDirty[:0], q
	return dist, from
}

// ParBallLayersFromSet is BallLayersFromSetWithWorkspace with parallel
// level expansion: layer 0 is the deduplicated alive subset of seeds (in
// input order), layer j the alive vertices at distance exactly j. Returns
// nil when no seed is alive. Bit-identical to the serial code for every
// worker count; the result aliases the workspace.
func ParBallLayersFromSet(pw *ParWorkspace, g View, seeds []int32, radius int, alive []bool, workers int) [][]int32 {
	workers = par.Workers(workers)
	pw.reserve(g.N())
	ws := pw.ws
	seen, epoch := ws.beginStamp()
	out := ws.out[:0]
	for _, s := range seeds {
		if seen[s] == epoch || (alive != nil && !alive[s]) {
			continue
		}
		seen[s] = epoch
		out = append(out, s)
	}
	if len(out) == 0 {
		ws.out = out
		return nil
	}
	layers := append(ws.layers[:0], out[0:len(out):len(out)])
	start, end := 0, len(out)
	for d := 0; d < radius && start < end; d++ {
		f := out[start:end:end]
		out = pw.expandLevelStamp(g, f, out, seen, epoch, alive, workers)
		if len(out) == end {
			break
		}
		layers = append(layers, out[end:len(out):len(out)])
		start, end = end, len(out)
	}
	ws.out = out
	ws.layers = layers
	return layers
}

// ParBallFromSet returns the flattened layers of ParBallLayersFromSet: the
// vertices within distance `radius` of the seed set, in BFS order. The
// result aliases the workspace.
func ParBallFromSet(pw *ParWorkspace, g View, seeds []int32, radius int, alive []bool, workers int) []int32 {
	layers := ParBallLayersFromSet(pw, g, seeds, radius, alive, workers)
	if layers == nil {
		return nil
	}
	total := 0
	for _, l := range layers {
		total += len(l)
	}
	return pw.ws.out[:total]
}

// ParBallLayers is ParBallLayersFromSet for a single centre, matching
// BallLayersWithWorkspace.
func ParBallLayers(pw *ParWorkspace, g View, v, radius int, alive []bool, workers int) [][]int32 {
	if v < 0 || v >= g.N() {
		return nil
	}
	seed := [1]int32{int32(v)}
	return ParBallLayersFromSet(pw, g, seed[:], radius, alive, workers)
}

// ParComponents labels connected components of the alive-induced subgraph,
// bit-identical to ComponentsAliveWithWorkspace: ids are dense, 0-based,
// in order of first discovery, dead vertices get -1. Each component's BFS
// expands its levels in parallel, so one giant component still uses every
// worker. The result aliases the workspace.
func ParComponents(pw *ParWorkspace, g View, alive []bool, workers int) (comp []int32, count int) {
	workers = par.Workers(workers)
	n := g.N()
	pw.reserve(n)
	ws := pw.ws
	comp = ws.comp[:n]
	for i := range comp {
		comp[i] = -1
	}
	q := ws.queue[:0]
	for s := 0; s < n; s++ {
		if comp[s] != -1 || (alive != nil && !alive[s]) {
			continue
		}
		id := int32(count)
		count++
		comp[s] = id
		q = append(q[:0], int32(s))
		levelStart := 0
		for levelStart < len(q) {
			f := q[levelStart:len(q):len(q)]
			levelStart = len(q)
			q = pw.expandLevelComp(g, f, q, comp, id, alive, workers)
		}
	}
	ws.queue = q
	return comp, count
}

// ParEccentricity is Eccentricity with parallel BFS level expansion.
func ParEccentricity(pw *ParWorkspace, g View, v, workers int) int {
	dist := ParBFS(pw, g, v, workers)
	best := 0
	for _, d := range dist {
		if int(d) > best {
			best = int(d)
		}
	}
	return best
}

// ParDiameter is Diameter with the per-source BFS sweeps fanned out across
// the worker pool (one serial workspace per worker; the max over sources
// is order-independent, so the result is identical for any worker count).
func (g *Graph) ParDiameter(workers int) int {
	n := g.N()
	workers = min(par.Workers(workers), max(n, 1))
	if workers <= 1 {
		return g.Diameter()
	}
	best := make([]int, workers)
	wss := make([]*Workspace, workers)
	for i := range wss {
		wss[i] = AcquireWorkspace()
	}
	par.ForEachChunk(workers, n, 16, func(w, s int) {
		dist := g.BFSWithWorkspace(wss[w], s)
		for _, d := range dist {
			if int(d) > best[w] {
				best[w] = int(d)
			}
		}
	})
	for _, ws := range wss {
		ReleaseWorkspace(ws)
	}
	out := 0
	for _, b := range best {
		if b > out {
			out = b
		}
	}
	return out
}

// ParWeakDiameter is WeakDiameter with the per-member BFS sweeps fanned
// out across the worker pool. Returns -1 if some pair of s is disconnected
// in g, exactly like the serial sweep.
func (g *Graph) ParWeakDiameter(s []int32, workers int) int {
	workers = min(par.Workers(workers), max(len(s), 1))
	if workers <= 1 {
		return g.WeakDiameter(s)
	}
	best := make([]int, workers)
	wss := make([]*Workspace, workers)
	for i := range wss {
		wss[i] = AcquireWorkspace()
	}
	par.ForEachChunk(workers, len(s), 4, func(w, i int) {
		if best[w] == -1 {
			return
		}
		dist := g.BFSWithWorkspace(wss[w], int(s[i]))
		for _, u := range s {
			d := dist[u]
			if d == Unreachable {
				best[w] = -1
				return
			}
			if int(d) > best[w] {
				best[w] = int(d)
			}
		}
	})
	for _, ws := range wss {
		ReleaseWorkspace(ws)
	}
	out := 0
	for _, b := range best {
		if b == -1 {
			return -1
		}
		if b > out {
			out = b
		}
	}
	return out
}
