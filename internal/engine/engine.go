// Package engine is the concurrent serving layer over the algorithm
// registry (internal/algo): any registered algorithm family is invocable by
// name against a registered graph — immutable or mutable — behind a request
// API that amortizes work across callers. A result is computed at most once
// per (graph snapshot fingerprint, algorithm, canonical parameters) triple.
//
// The engine's state is split into N power-of-two shards, each with its own
// lock, LRU cache of completed results, singleflight table, and slice of
// the graph registry; requests route to shards by a hash of (fingerprint,
// cache key), so throughput scales with cores instead of serializing on one
// mutex. Stats counters stay atomic and global; per-shard occupancy and
// evictions are exposed so cache skew is observable.
//
// The request flow for every call is
//
//	resolve source → fingerprint → cache lookup → singleflight join →
//	compute → cache fill
//
// A Source is either a Handle (an immutable graph registered once) or a
// StoreHandle (a mutable store.Store): the engine resolves a store handle
// to its current snapshot at request start, keys the cache by the snapshot
// fingerprint, and stamps the snapshot identity into the result — so
// in-flight requests are isolated from concurrent mutations, and results
// computed against superseded snapshots age out of the sharded LRU
// naturally instead of requiring invalidation sweeps.
//
// Run is the only compute path. The point queries sit on top of it:
// ClusterOf indexes the result of Run("changli", p), so it shares cache
// slots with a plain Run under the same parameters, and Balls searches the
// resolved snapshot directly. Both return the snapshot their answer was
// computed on.
//
// Under churn, a cache miss against a store-backed source does not always
// recompute: with Options.RepairK > 0 the engine walks the snapshot's
// ancestry (the store's delta log and fingerprint chain) up to RepairK
// mutations back for a cached result under the same algorithm key, and
// delta-repairs it onto the current snapshot (ldd.RepairDelta /
// ldd.RepairCoverDelta) — certifying untouched clusters and re-carving
// only what the net edge delta broke. Repairs run on the snapshot's
// overlay view, so a certificate-only repair never materializes a CSR.
// Chains of repairs-of-repairs are capped at Options.RepairMaxGen before a
// full recompute resets the drift; repairs that decline (region too large,
// failed certificate, quality regression) fall back to a recompute and are
// counted in Stats.RepairFallbacks.
//
// Every request takes a context: a cancelled or deadline-expired request
// stops promptly — computations poll the context in their outer loops, a
// joiner abandons its singleflight wait without disturbing the computation,
// and a computation cancelled by its initiating request is retried by any
// surviving joiner whose own context is still live. Error results are never
// cached, and a finished computation is unpublished (inflight entry removed,
// successful result cached) before any joiner wakes, so joiners can never
// re-observe a dead in-flight entry.
//
// Results returned by the engine are shared across callers and must be
// treated as immutable; copy anything you need to mutate.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/ldd"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/store"
)

// defaultShards is the shard count when Options.Shards is unset. Eight
// keeps per-shard capacity meaningful at the default total capacity while
// removing essentially all lock contention at laptop-to-server core counts.
const defaultShards = 8

// Options configures an Engine.
type Options struct {
	// Capacity bounds the number of cached results across all graphs and
	// algorithms (split evenly across shards). <= 0 means the default (64).
	Capacity int
	// Shards is the number of independently locked cache/singleflight
	// shards; it is rounded up to a power of two and clamped so every
	// shard has capacity >= 1. <= 0 means the default (8). Shards = 1
	// reproduces the single-mutex engine (useful as a contention
	// baseline and for tests that pin global LRU order).
	Shards int
	// MetricsSampleEvery sets the cached-hit latency sampling interval:
	// one request in every MetricsSampleEvery (rounded up to a power of
	// two) pays for clock reads and a histogram record. <= 0 means the
	// default (obs.DefaultSampleEvery); 1 times every request. Compute
	// and joiner-wait latency are always recorded — they are orders of
	// magnitude slower than the instrumentation.
	MetricsSampleEvery int
	// RepairK enables incremental repair on the miss path for store-backed
	// snapshots: a request whose fingerprint misses walks up to RepairK
	// deltas back through the snapshot's ancestry, and if a cached result
	// exists for an ancestor (for a repairable algorithm family) it is
	// delta-repaired onto the current graph instead of recomputed from
	// scratch. <= 0 disables repair (the default): results are then
	// produced exclusively by full runs.
	RepairK int
	// RepairMaxGen caps consecutive repairs of the same cached lineage:
	// once a result's repair generation reaches the cap, the next miss
	// recomputes in full, resetting drift accumulated by repair
	// certificates. <= 0 means the default (32).
	RepairMaxGen int
	// Workers is the default per-query worker bound injected into requests
	// for worker-capable algorithm families (and the Balls fan-out) when
	// the request leaves its own workers knob unset. <= 0 keeps
	// the downstream default (GOMAXPROCS). Worker counts never change
	// results (parallel execution is bit-identical to serial) and are
	// excluded from cache keys, so this knob only shapes CPU usage.
	Workers int
}

func (o Options) capacity() int {
	if o.Capacity <= 0 {
		return 64
	}
	return o.Capacity
}

func (o Options) repairMaxGen() int {
	if o.RepairMaxGen <= 0 {
		return 32
	}
	return o.RepairMaxGen
}

// maxShards caps the shard count: beyond this, per-shard state is all
// overhead (and an unbounded round-up could overflow).
const maxShards = 1 << 10

func (o Options) shardCount() int {
	n := o.Shards
	if n <= 0 {
		n = defaultShards
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	for p > 1 && o.capacity()/p < 1 {
		p >>= 1
	}
	return p
}

// ShardStat is one shard's occupancy snapshot, for observing skew.
type ShardStat struct {
	// Entries is the number of cached results resident in the shard.
	Entries int
	// Evictions counts entries this shard dropped (LRU overflow or
	// Unregister).
	Evictions uint64
	// Inflight is the number of computations currently in flight in the
	// shard's singleflight table.
	Inflight int
}

// Stats is a snapshot of the engine's monotonic counters.
type Stats struct {
	// Hits counts requests answered from the completed-result cache.
	Hits uint64
	// Misses counts requests that started a new computation.
	Misses uint64
	// Dedup counts requests that joined an in-flight identical computation
	// instead of starting their own (the singleflight savings).
	Dedup uint64
	// Computations counts underlying algorithm runs, including delta
	// repairs; Misses and Computations agree unless a computation panicked
	// or was retried after a cancelled initiator abandoned it. Full
	// recomputes are Computations - RepairHits.
	Computations uint64
	// RepairHits counts misses served by delta-repairing a cached ancestor
	// result instead of recomputing from scratch (a subset of Misses;
	// requires Options.RepairK > 0 and a store-backed snapshot).
	RepairHits uint64
	// RepairFallbacks counts miss-path repair attempts that fell through
	// to a full recompute: no cached ancestor within RepairK deltas, the
	// generation cap was reached, or the repair itself declined (delta too
	// large, certificate failure, invariant violation).
	RepairFallbacks uint64
	// RepairedClusters totals the clusters re-carved or patched across all
	// successful repairs (the incremental work actually done).
	RepairedClusters uint64
	// Evictions counts cache entries dropped by the LRU policy (capacity
	// overflow or Unregister), summed over shards.
	Evictions uint64
	// Queries counts batch query calls (cluster-of, balls, local solves).
	Queries uint64
	// Cancellations counts requests that returned a context error
	// (deadline exceeded or cancelled) instead of a result.
	Cancellations uint64
	// Shards is the per-shard occupancy, indexed by shard; eviction skew
	// shows up as unequal Entries/Evictions across shards.
	Shards []ShardStat
}

// InflightTotal sums the in-flight computations across shards. After a
// serving layer has drained (no requests outstanding), it must be zero —
// any residue is a dangling singleflight entry.
func (s Stats) InflightTotal() int {
	total := 0
	for _, sh := range s.Shards {
		total += sh.Inflight
	}
	return total
}

// EntriesTotal sums the resident cache entries across shards.
func (s Stats) EntriesTotal() int {
	total := 0
	for _, sh := range s.Shards {
		total += sh.Entries
	}
	return total
}

// cacheKey identifies one cached result: the graph snapshot's fingerprint
// plus the algorithm's canonical cache key (name + canonicalized
// parameters, parallelism knobs excluded — results are bit-identical for
// every worker count, so they must share a cache slot).
type cacheKey struct {
	fp  graphio.Fingerprint
	key string
}

// entry is one cache slot: completed when ready is closed.
type entry struct {
	ready chan struct{}
	val   any
	err   error
}

// Engine is the concurrent algorithm server. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Engine struct {
	shards []*shard
	mask   uint64

	hits          atomic.Uint64
	misses        atomic.Uint64
	dedup         atomic.Uint64
	computations  atomic.Uint64
	evictions     atomic.Uint64
	queries       atomic.Uint64
	cancellations atomic.Uint64

	repairK          int
	repairMaxGen     int
	workers          int
	repairHits       atomic.Uint64
	repairFallbacks  atomic.Uint64
	repairedClusters atomic.Uint64

	met *obs.EngineMetrics
}

// New constructs an Engine.
func New(o Options) *Engine {
	nshards := o.shardCount()
	capacity := o.capacity()
	e := &Engine{
		shards:       make([]*shard, nshards),
		mask:         uint64(nshards - 1),
		repairK:      o.RepairK,
		repairMaxGen: o.repairMaxGen(),
		workers:      o.Workers,
		met:          obs.NewEngineMetrics(nshards, o.MetricsSampleEvery),
	}
	// Split the total capacity exactly: the first capacity%nshards shards
	// take one extra slot, so Options.Capacity is never silently shrunk by
	// flooring.
	per, extra := capacity/nshards, capacity%nshards
	if per < 1 {
		per, extra = 1, 0
	}
	for i := range e.shards {
		c := per
		if i < extra {
			c++
		}
		e.shards[i] = newShard(c)
	}
	return e
}

// Workers reports the effective per-query worker bound: Options.Workers
// if set, otherwise GOMAXPROCS.
func (e *Engine) Workers() int {
	return par.Workers(e.workers)
}

// defaultWorkers applies the engine's configured worker bound to a request
// that left its own workers knob unset (<= 0). An explicit per-request
// value always wins.
func (e *Engine) defaultWorkers(requested int) int {
	if requested <= 0 && e.workers > 0 {
		return e.workers
	}
	return requested
}

// Stats returns a snapshot of the counters. The per-shard occupancy is
// gathered shard by shard (each under its own lock), so the slice is
// internally consistent per shard but not a global atomic cut.
func (e *Engine) Stats() Stats {
	st := Stats{
		Hits:          e.hits.Load(),
		Misses:        e.misses.Load(),
		Dedup:         e.dedup.Load(),
		Computations:  e.computations.Load(),
		Evictions:     e.evictions.Load(),
		Queries:       e.queries.Load(),
		Cancellations: e.cancellations.Load(),

		RepairHits:       e.repairHits.Load(),
		RepairFallbacks:  e.repairFallbacks.Load(),
		RepairedClusters: e.repairedClusters.Load(),

		Shards: make([]ShardStat, len(e.shards)),
	}
	for i, sh := range e.shards {
		sh.mu.Lock()
		st.Shards[i] = ShardStat{
			Entries:   sh.cache.len(),
			Evictions: sh.evictions,
			Inflight:  len(sh.inflight),
		}
		sh.mu.Unlock()
	}
	return st
}

// NumShards returns the engine's shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// Metrics returns the engine's latency histograms (hit, compute,
// joiner-wait, per-shard hit). Always non-nil; hit latency is sampled per
// Options.MetricsSampleEvery.
func (e *Engine) Metrics() *obs.EngineMetrics { return e.met }

// sourceView is a resolved Source: the snapshot fingerprint that keys the
// cache, plus access to the graph at that version. Exactly one of g / snap
// is set.
type sourceView struct {
	fp   graphio.Fingerprint
	g    *graph.Graph    // immutable Handle
	snap *store.Snapshot // mutable StoreHandle, pinned at resolve time
}

func (v sourceView) n() int {
	if v.g != nil {
		return v.g.N()
	}
	return v.snap.N()
}

// graph returns the concrete CSR graph of the resolved version,
// materializing a store snapshot at most once.
func (v sourceView) graph() *graph.Graph {
	if v.g != nil {
		return v.g
	}
	return v.snap.Graph()
}

// view returns the resolved version as a read view without forcing
// materialization: store snapshots serve adjacency through their overlay,
// so certificate-only repairs skip the O(n+m) CSR build entirely (a
// re-carve materializes on demand via Snapshot.Graph).
func (v sourceView) view() graph.View {
	if v.g != nil {
		return v.g
	}
	return v.snap
}

// Source is anything the engine can serve requests against: a Handle to a
// registered immutable graph, or a StoreHandle to a mutable store resolved
// to its current snapshot at each request.
type Source interface {
	resolve() sourceView
}

// Handle names a registered immutable graph: the graph plus its content
// fingerprint, computed once at registration. A Handle wraps exactly one
// pointer so converting it to Source never allocates (the request hot path
// passes handles as interfaces); the zero Handle is not usable.
type Handle struct {
	d *handleData
}

type handleData struct {
	g  *graph.Graph
	fp graphio.Fingerprint
}

// Graph returns the underlying graph.
func (h Handle) Graph() *graph.Graph { return h.d.g }

// Fingerprint returns the graph's content fingerprint.
func (h Handle) Fingerprint() graphio.Fingerprint { return h.d.fp }

func (h Handle) resolve() sourceView { return sourceView{fp: h.d.fp, g: h.d.g} }

// StoreHandle serves requests against a mutable store.Store: every request
// resolves the store's current snapshot and is keyed by that snapshot's
// fingerprint, so a mutation simply changes which cache slots subsequent
// requests hit, while in-flight requests keep the snapshot they resolved.
type StoreHandle struct {
	st *store.Store
}

// Store returns the underlying store.
func (sh StoreHandle) Store() *store.Store { return sh.st }

func (sh StoreHandle) resolve() sourceView {
	snap := sh.st.Snapshot()
	return sourceView{fp: snap.Fingerprint(), snap: snap}
}

// Register fingerprints g and returns a request handle. Graphs with equal
// fingerprints collapse to the first registered instance, so two callers
// that loaded the same file through different formats share cache entries
// and backing storage. Registered graphs are retained until Unregister —
// the LRU capacity bounds cached results, not graphs — so long-running
// multi-tenant servers must Unregister graphs they are done with.
func (e *Engine) Register(g *graph.Graph) Handle {
	fp := graphio.FingerprintOf(g)
	sh := e.shardForFP(fp)
	sh.mu.Lock()
	if prev, ok := sh.graphs[fp]; ok {
		g = prev
	} else {
		sh.graphs[fp] = g
	}
	sh.mu.Unlock()
	return Handle{d: &handleData{g: g, fp: fp}}
}

// RegisterStore wraps a mutable store for serving. No registry entry is
// kept (the store owns its graph versions, and its fingerprint changes
// with every mutation); results for superseded snapshots age out of the
// sharded LRU rather than being swept eagerly.
func (e *Engine) RegisterStore(st *store.Store) StoreHandle {
	return StoreHandle{st: st}
}

// Unregister drops the engine's reference to h's graph and every cached
// result for it (across all shards). Outstanding handles and results
// remain valid (they hold their own references); subsequent requests
// through such a handle simply recompute and re-cache. In-flight
// computations are left to finish and cache normally.
func (e *Engine) Unregister(h Handle) {
	gsh := e.shardForFP(h.d.fp)
	gsh.mu.Lock()
	delete(gsh.graphs, h.d.fp)
	gsh.mu.Unlock()
	for _, sh := range e.shards {
		sh.mu.Lock()
		if removed := sh.cache.removeFingerprint(h.d.fp); removed > 0 {
			sh.evictions += uint64(removed)
			e.evictions.Add(uint64(removed))
		}
		sh.mu.Unlock()
	}
}

// ctxErr reports whether err is a context cancellation/deadline error.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// do runs the cache → singleflight → compute flow for one request key on
// the key's shard. The compute closure receives the initiating request's
// context; a joiner whose own context dies abandons the wait, and a joiner
// that outlives a cancelled initiator retries the computation under its own
// context.
//
// Publication protocol: the initiator removes the inflight entry — and, on
// success, installs the cache entry — in one critical section *before*
// closing ready. A woken joiner therefore never re-observes the dead
// inflight entry (the pre-shard engine had a window where a retrying joiner
// could spin on an already-completed entry that the initiator had not yet
// unlinked), and a compute error can never leave a dangling inflight entry
// behind, however the initiator's context races with the failure.
func (e *Engine) do(ctx context.Context, key cacheKey, compute func(context.Context) (any, error)) (any, error) {
	// Hit-path timing is sampled: the cached-hit path runs in hundreds of
	// nanoseconds, so only one request in SampleEvery pays for clock reads
	// and histogram records. Compute and joiner-wait are always timed.
	m := e.met
	var t0 time.Time
	sampled := m.Sample()
	if sampled {
		t0 = time.Now()
	}
	idx := e.shardIndex(key)
	sh := e.shards[idx]
	for {
		sh.mu.Lock()
		if ent, ok := sh.cache.get(key); ok {
			e.hits.Add(1)
			sh.mu.Unlock()
			if sampled {
				d := time.Since(t0)
				m.Hit.Observe(d)
				m.ShardHit[idx].Observe(d)
			}
			return ent.val, nil
		}
		if ent, ok := sh.inflight[key]; ok {
			e.dedup.Add(1)
			sh.mu.Unlock()
			// A hit after a joiner wait would record the wait as lookup
			// time; keep the hit histogram honest.
			sampled = false
			endWait := obs.StartPhase(ctx, "joiner-wait")
			tw := time.Now()
			select {
			case <-ent.ready:
				m.JoinWait.Observe(time.Since(tw))
				endWait()
			case <-ctx.Done():
				m.JoinWait.Observe(time.Since(tw))
				endWait()
				e.cancellations.Add(1)
				return nil, ctx.Err()
			}
			if ent.err != nil {
				if ctxErr(ent.err) && ctx.Err() == nil {
					// The initiator was cancelled, we were not: retry under
					// our own context.
					continue
				}
				if ctxErr(ent.err) {
					e.cancellations.Add(1)
				}
				return nil, ent.err
			}
			return ent.val, nil
		}
		ent := &entry{ready: make(chan struct{})}
		sh.inflight[key] = ent
		e.misses.Add(1)
		sh.mu.Unlock()

		func() {
			defer func() {
				if r := recover(); r != nil {
					ent.err = fmt.Errorf("engine: computation for %q panicked: %v", key.key, r)
				}
				sh.mu.Lock()
				delete(sh.inflight, key)
				if ent.err == nil {
					if ev := sh.cache.add(key, ent); ev > 0 {
						sh.evictions += uint64(ev)
						e.evictions.Add(uint64(ev))
					}
				}
				sh.mu.Unlock()
				close(ent.ready)
			}()
			e.computations.Add(1)
			endCompute := obs.StartPhase(ctx, "compute")
			tc := time.Now()
			ent.val, ent.err = compute(ctx)
			m.Compute.Observe(time.Since(tc))
			endCompute()
		}()
		if ctxErr(ent.err) {
			e.cancellations.Add(1)
		}
		return ent.val, ent.err
	}
}

// stamp records the snapshot identity a result was computed against, so
// callers (and tests) can audit which graph version produced a cached
// entry.
func stamp(r *algo.Result, fp graphio.Fingerprint) *algo.Result {
	r.Snapshot = fp.String()
	return r
}

// Run invokes any registered algorithm by name against src's current
// snapshot, computing it at most once per (snapshot fingerprint, algorithm,
// canonical params). The returned envelope is shared; treat it as
// immutable.
func (e *Engine) Run(ctx context.Context, src Source, name string, p algo.Params) (*algo.Result, error) {
	s, ok := algo.Get(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown algorithm %q", name)
	}
	if e.workers > 0 && s.Caps.Workers {
		if v, ok := p["workers"]; !ok || v == "" || v == "0" {
			q := make(algo.Params, len(p)+1)
			for k, v := range p {
				q[k] = v
			}
			q["workers"] = strconv.Itoa(e.workers)
			p = q
		}
	}
	key, err := s.CacheKey(p)
	if err != nil {
		return nil, err
	}
	sv := src.resolve()
	if tr := obs.FromContext(ctx); tr != nil {
		tr.SetRequest(name, key, sv.fp.String())
	}
	v, err := e.do(ctx, cacheKey{fp: sv.fp, key: key}, func(ctx context.Context) (any, error) {
		if s.Caps.Repairable {
			if r, ok := e.tryRepair(ctx, sv, key, func(ctx context.Context, old *algo.Result, delta ldd.EdgeDelta) (*algo.Result, error) {
				return s.RepairSpec(ctx, sv.view(), old, p, delta)
			}); ok {
				return r, nil
			}
		}
		r, err := s.RunSpec(ctx, sv.graph(), p)
		if err != nil {
			return nil, err
		}
		return stamp(r, sv.fp), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*algo.Result), nil
}

// ClusterOf answers a batch of cluster-of-vertex queries against the
// changli decomposition of src's current snapshot under p (the changli
// spec's parameters), served by Run, so it shares cache slots with
// Run("changli", p). It returns the caller-owned cluster ids and the
// snapshot the decomposition was computed on.
func (e *Engine) ClusterOf(ctx context.Context, src Source, p algo.Params, vs []int32) ([]int32, string, error) {
	e.queries.Add(1)
	res, err := e.Run(ctx, src, "changli", p)
	if err != nil {
		return nil, "", err
	}
	out := make([]int32, len(vs))
	for i, v := range vs {
		if v < 0 || int(v) >= len(res.ClusterOf) {
			return nil, "", fmt.Errorf("engine: vertex %d out of range [0, %d)", v, len(res.ClusterOf))
		}
		out[i] = res.ClusterOf[v]
	}
	return out, res.Snapshot, nil
}

// Balls answers a batch of ball queries N^radius(v) on src's current
// snapshot, fanning out across the worker pool with one pooled traversal
// workspace per worker. Store snapshots are searched directly on their
// delta overlay (no CSR materialization). workers <= 0 means GOMAXPROCS.
// It returns the caller-owned balls and the snapshot they were searched on.
func (e *Engine) Balls(ctx context.Context, src Source, vs []int32, radius, workers int) ([][]int32, string, error) {
	e.queries.Add(1)
	sv := src.resolve()
	n := sv.n()
	for _, v := range vs {
		if v < 0 || int(v) >= n {
			return nil, "", fmt.Errorf("engine: vertex %d out of range [0, %d)", v, n)
		}
	}
	snapshot := sv.fp.String()
	out := make([][]int32, len(vs))
	workers = min(par.Workers(e.defaultWorkers(workers)), len(vs))
	if workers == 0 {
		return out, snapshot, nil
	}
	gv := sv.view()
	pws := graph.AcquireParWorkspaces(workers)
	err := par.ForEachCtx(ctx, workers, len(vs), func(w, i int) {
		out[i] = slices.Clone(graph.ParBall(pws[w], gv, int(vs[i]), radius, nil, 1))
	})
	graph.ReleaseParWorkspaces(pws)
	if err != nil {
		e.cancellations.Add(1)
		return nil, "", err
	}
	return out, snapshot, nil
}
