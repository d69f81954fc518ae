package graph

import (
	"sync/atomic"

	"repro/internal/par"
)

// This file implements the traversal kernels: level-synchronous BFS over
// any View (CSR graphs and store-snapshot overlays alike) whose levels may
// expand across a worker pool, with merges that make the output
// bit-identical to a one-worker (serial) run for every worker count.
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
// goroutine or atomics overhead (a warm below-threshold kernel call
// allocates nothing, which the test suite pins). A search on a *Graph at
// one worker skips the level dispatch altogether (see ballLevels).

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

// nextEpoch starts a new claim epoch and returns its base word. Rolling
// the epoch invalidates every stale claim in O(1); a full reset is needed
// at most once every ~2^30 parallel levels.
func (pw *ParWorkspace) nextEpoch() int64 {
	if pw.claimEpoch >= 1<<30 {
		clear(pw.claim)
		pw.claimEpoch = 0
	}
	pw.claimEpoch++
	return pw.claimEpoch << 32
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
	if n := g.N(); len(pw.claim) < n {
		pw.claim = append(pw.claim, make([]int64, n-len(pw.claim))...)
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

// --- label-mode expansion (BFS distances, component ids) --------------------
//
// A label search writes lab[w] = lab[v] + step for every unlabeled alive
// neighbor w of v, where unlabeled means -1 (Unreachable). step 1 gives
// BFS distances, step 0 spreads a component id. Within one level every
// frontier vertex carries the same label, so a level writes one value.

// expandLevelLabel expands frontier f into q, labeling discovered vertices
// with val exactly like labelQueue.
func (pw *ParWorkspace) expandLevelLabel(g View, f, q []int32, lab []int32, val int32, alive []bool, workers int) []int32 {
	if workers <= 1 || !pw.partition(g, f, workers) {
		for _, v := range f {
			for _, w := range g.Neighbors(int(v)) {
				if lab[w] == -1 && (alive == nil || alive[w]) {
					lab[w] = val
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
				if lab[w] == -1 && (alive == nil || alive[w]) {
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
					lab[w] = val
					buf = append(buf, w)
				}
			}
		}
		pw.bufs[c].buf = buf
	})
	return pw.mergeChunks(q)
}

// labelSearch runs a label search from the labeled queue q (all of one
// label) for up to radius levels (negative = unbounded) and returns the
// queue of every labeled vertex in discovery order.
func (pw *ParWorkspace) labelSearch(g View, q []int32, lab []int32, step int32, radius int, alive []bool, workers int) []int32 {
	if cg, ok := g.(*Graph); ok && workers <= 1 {
		return labelQueue(cg, q, lab, step, radius, alive)
	}
	levelStart := 0
	for depth := 0; (radius < 0 || depth < radius) && levelStart < len(q); depth++ {
		f := q[levelStart:len(q):len(q)]
		levelStart = len(q)
		q = pw.expandLevelLabel(g, f, q, lab, lab[f[0]]+step, alive, workers)
	}
	return q
}

// labelQueue is labelSearch for a *Graph at one worker: a plain FIFO loop
// with the neighbor lookup inlined, for the reason given at ballLevels.
// Its output is identical to the level loop's.
func labelQueue(g *Graph, q []int32, lab []int32, step int32, radius int, alive []bool) []int32 {
	limit := int32(-1)
	if radius >= 0 {
		limit = lab[q[0]] + int32(radius)*step
	}
	for head := 0; head < len(q); head++ {
		v := q[head]
		x := lab[v]
		if x == limit {
			continue
		}
		x += step
		for _, w := range g.Neighbors(int(v)) {
			if lab[w] == -1 && (alive == nil || alive[w]) {
				lab[w] = x
				q = append(q, w)
			}
		}
	}
	return q
}

// --- stamp-mode expansion (balls, layers) ----------------------------------

// expandLevelStamp expands frontier f into out under the workspace's
// current stamp epoch, honoring the alive mask, exactly like ballLevels.
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

// --- public traversals -----------------------------------------------------
//
// Every kernel takes a worker bound (<= 0 means GOMAXPROCS). Callers that
// already fan independent searches out across a pool pass workers = 1: each
// level then expands in the serial loop with no goroutines, atomics or
// allocations, and the output is the same as at any other worker count.

// ParBFSBounded computes distances from src up to radius (negative =
// unbounded) over g, expanding each frontier level across up to `workers`
// goroutines. dist[v] == Unreachable for vertices not reached. The result
// aliases the workspace and is valid until its next use.
func ParBFSBounded(pw *ParWorkspace, g View, src, radius, workers int) []int32 {
	workers = par.Workers(workers)
	n := g.N()
	pw.reserve(n)
	pw.resetDist()
	dist := pw.dist[:n]
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	q := pw.labelSearch(g, append(pw.queue[:0], int32(src)), dist, 1, radius, nil, workers)
	// The dirtied dist entries are exactly the queue contents: swap the two
	// buffers instead of copying (distDirty was emptied by resetDist above).
	pw.queue, pw.distDirty = pw.distDirty[:0], q
	return dist
}

// ParBFS is ParBFSBounded with no radius bound.
func ParBFS(pw *ParWorkspace, g View, src, workers int) []int32 {
	return ParBFSBounded(pw, g, src, -1, workers)
}

// ParBallLayersFromSet returns the BFS layers around a seed set in the
// alive-induced subgraph (alive == nil means every vertex is alive): layer
// 0 is the deduplicated alive subset of seeds (in input order), layer j
// the alive vertices at distance exactly j, up to radius; trailing empty
// layers are trimmed. Returns nil when no seed is alive. Each layer lists
// its vertices in discovery order. The result aliases the workspace.
func ParBallLayersFromSet(pw *ParWorkspace, g View, seeds []int32, radius int, alive []bool, workers int) [][]int32 {
	if pw.ball(g, seeds, radius, alive, workers, true) == nil {
		return nil
	}
	return pw.layers
}

// ParBallFromSet returns the flattened layers of ParBallLayersFromSet: the
// vertices within distance `radius` of the seed set, in BFS order. The
// result aliases the workspace.
func ParBallFromSet(pw *ParWorkspace, g View, seeds []int32, radius int, alive []bool, workers int) []int32 {
	return pw.ball(g, seeds, radius, alive, workers, false)
}

// ball is the kernel behind the ball searches: it returns the flat ball
// (nil when no seed is alive) and, when layered, leaves the layer headers
// in pw.layers.
func (pw *ParWorkspace) ball(g View, seeds []int32, radius int, alive []bool, workers int, layered bool) []int32 {
	workers = par.Workers(workers)
	pw.reserve(g.N())
	seen, epoch := pw.beginStamp()
	out := pw.out[:0]
	for _, s := range seeds {
		if seen[s] == epoch || (alive != nil && !alive[s]) {
			continue
		}
		seen[s] = epoch
		out = append(out, s)
	}
	layers := pw.layers[:0]
	if len(out) == 0 {
		pw.out, pw.layers = out, layers
		return nil
	}
	if layered {
		layers = append(layers, out[0:len(out):len(out)])
	}
	if cg, ok := g.(*Graph); ok && workers <= 1 {
		out, layers = ballLevels(cg, out, radius, seen, epoch, alive, layers, layered)
	} else {
		start, end := 0, len(out)
		for d := 0; d < radius && start < end; d++ {
			out = pw.expandLevelStamp(g, out[start:end:end], out, seen, epoch, alive, workers)
			if layered && len(out) > end {
				layers = append(layers, out[end:len(out):len(out)])
			}
			start, end = end, len(out)
		}
	}
	pw.out, pw.layers = out, layers
	return out
}

// ballLevels is ball's level loop for a *Graph at one worker, the shape of
// nearly every ball query: callers fan balls out across a pool. With the
// concrete type the neighbor lookup inlines and no call is made per level.
// On sparse graphs that is most of the cost: through the View loop, the
// balls of a 3000-vertex cycle (two vertices per level) took about 1.6x as
// long. Its output is identical to the View loop's.
func ballLevels(g *Graph, out []int32, radius int, seen []int32, epoch int32, alive []bool, layers [][]int32, layered bool) ([]int32, [][]int32) {
	start, end := 0, len(out)
	for d := 0; d < radius && start < end; d++ {
		for i := start; i < end; i++ {
			for _, w := range g.Neighbors(int(out[i])) {
				if seen[w] == epoch || (alive != nil && !alive[w]) {
					continue
				}
				seen[w] = epoch
				out = append(out, w)
			}
		}
		if layered && len(out) > end {
			layers = append(layers, out[end:len(out):len(out)])
		}
		start, end = end, len(out)
	}
	return out, layers
}

// ParBallLayers is ParBallLayersFromSet for a single centre v: the layers
// S_0 = {v}, S_1, ..., up to radius. Returns nil when v is out of range or
// dead.
func ParBallLayers(pw *ParWorkspace, g View, v, radius int, alive []bool, workers int) [][]int32 {
	if v < 0 || v >= g.N() {
		return nil
	}
	seed := [1]int32{int32(v)}
	return ParBallLayersFromSet(pw, g, seed[:], radius, alive, workers)
}

// ParBall is ParBallFromSet for a single centre v: N^radius(v) in the
// alive-induced subgraph, in BFS order (v first). Returns nil when v is out
// of range or dead.
func ParBall(pw *ParWorkspace, g View, v, radius int, alive []bool, workers int) []int32 {
	if v < 0 || v >= g.N() {
		return nil
	}
	seed := [1]int32{int32(v)}
	return ParBallFromSet(pw, g, seed[:], radius, alive, workers)
}

// ParComponents labels the connected components of the alive-induced
// subgraph: ids are dense, 0-based, in order of first discovery, dead
// vertices get -1. Each component's BFS expands its levels in parallel, so
// one giant component still uses every worker. The result aliases the
// workspace.
func ParComponents(pw *ParWorkspace, g View, alive []bool, workers int) (comp []int32, count int) {
	workers = par.Workers(workers)
	n := g.N()
	pw.reserve(n)
	comp = pw.comp[:n]
	for i := range comp {
		comp[i] = -1
	}
	q := pw.queue[:0]
	for s := 0; s < n; s++ {
		if comp[s] != -1 || (alive != nil && !alive[s]) {
			continue
		}
		comp[s] = int32(count)
		count++
		q = pw.labelSearch(g, append(q[:0], int32(s)), comp, 0, -1, alive, workers)
	}
	pw.queue = q
	return comp, count
}
