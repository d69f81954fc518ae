package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ldd"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/xrand"
)

func benchGraph() *graph.Graph {
	return gen.GNP(2000, 8.0/2000, xrand.New(1))
}

func benchParams() ldd.Params {
	return ldd.Params{Epsilon: 0.3, Seed: 11, Scale: 0.05}
}

// seedParams is the changli bag of benchParams under another seed.
func seedParams(seed uint64) algo.Params {
	p := benchParams()
	p.Seed = seed
	return changliParams(p)
}

// BenchmarkEngineCachedQuery times the cache-hit request path: the
// decomposition is computed once in warm-up, then every iteration is a
// Run with a prebuilt parameter bag: key canonicalization plus a
// fingerprint-keyed lookup. Compare against BenchmarkColdChangLi on the
// same graph and parameters: the acceptance bar is a >= 10x speedup, and in
// practice the gap is several orders of magnitude.
func BenchmarkEngineCachedQuery(b *testing.B) {
	g := benchGraph()
	e := New(Options{})
	h := e.Register(g)
	p := changliParams(benchParams())
	if _, err := e.Run(context.Background(), h, "changli", p); err != nil {
		b.Fatal(err)
	}
	base := e.Stats().Computations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), h, "changli", p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := e.Stats().Computations; got != base {
		b.Fatalf("cached path ran %d decompositions", got-base)
	}
	reportHitTail(b, e)
}

// reportHitTail surfaces the sampled hit-latency tail next to the mean so
// BENCH files carry p99 data, not just ns/op averages. Skipped when the
// run was too short to collect samples.
func reportHitTail(b *testing.B, e *Engine) {
	s := e.Metrics().Hit.Snapshot()
	if s.Count == 0 {
		return
	}
	b.ReportMetric(float64(s.Quantile(0.99)), "p99-ns")
	b.ReportMetric(float64(s.Quantile(0.50)), "p50-ns")
}

// BenchmarkColdChangLi is the uncached baseline: a full ldd.ChangLi run per
// iteration on the same graph and parameters as BenchmarkEngineCachedQuery.
func BenchmarkColdChangLi(b *testing.B) {
	g := benchGraph()
	p := benchParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(ldd.ChangLiCtx(context.Background(), g, p))
	}
}

// BenchmarkEngineBallsBatch times the workspace-reservoir query path: 64
// radius-2 ball lookups per iteration.
func BenchmarkEngineBallsBatch(b *testing.B) {
	g := benchGraph()
	e := New(Options{})
	h := e.Register(g)
	vs := make([]int32, 64)
	for i := range vs {
		vs[i] = int32(i * 31 % g.N())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Balls(context.Background(), h, vs, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWarmSeeds warms one cached decomposition per seed so every
// benchmark iteration is a hit; 16 seeds spread the keys across shards the
// way a mixed multi-tenant workload would.
const benchSeeds = 16

func warmSeeds(b *testing.B, e *Engine, h Handle) [benchSeeds]algo.Params {
	b.Helper()
	var ps [benchSeeds]algo.Params
	for s := range ps {
		ps[s] = seedParams(uint64(s))
		if _, err := e.Run(context.Background(), h, "changli", ps[s]); err != nil {
			b.Fatal(err)
		}
	}
	return ps
}

// benchCachedParallel is the contended cache-hit path under b.RunParallel:
// every goroutine streams hits over a 16-seed key space. shards=1
// reproduces the pre-shard single-mutex engine, so
// BenchmarkEngineCachedQueryParallel vs ...SingleShard is the sharding
// speedup at the current GOMAXPROCS (compare with -cpu 8 or higher).
func benchCachedParallel(b *testing.B, shards int) {
	g := benchGraph()
	// Capacity 256 keeps per-shard capacity (32 at 8 shards) above the
	// warm key count for any per-process hash seed, so no shard can evict
	// warm entries and turn the hit benchmark into a recompute benchmark.
	e := New(Options{Capacity: 256, Shards: shards})
	h := e.Register(g)
	ps := warmSeeds(b, e, h)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Stagger the per-goroutine walk so concurrent goroutines hit
		// different keys (and hence different shards) at any instant.
		i := next.Add(1) * 7
		for pb.Next() {
			if _, err := e.Run(context.Background(), h, "changli", ps[i%benchSeeds]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	if got := e.Stats().Computations; got != benchSeeds {
		b.Fatalf("timed loop recomputed: %d computations, want %d warm-only", got, benchSeeds)
	}
	reportHitTail(b, e)
}

func BenchmarkEngineCachedQueryParallel(b *testing.B) {
	benchCachedParallel(b, 0)
}

func BenchmarkEngineCachedQueryParallelSingleShard(b *testing.B) {
	benchCachedParallel(b, 1)
}

// benchChurn is the mixed churn workload behind the repair benchmarks: a
// 10k-vertex store-backed graph, 4 warm decomposition seeds, and a 5%
// chance per request that an edge toggles first (invalidating every warm
// fingerprint). With repairK=0 each invalidation forces up to 4 full
// recomputes; with repair enabled the misses patch the cached ancestor.
// Reported metrics: hit_rate is the effective (recompute-avoiding) rate
// including repairs, p99-ns/p50-ns the per-request latency tail.
func benchChurn(b *testing.B, repairK int) {
	g := gen.GNP(10000, 8.0/10000, xrand.New(1))
	st := store.New(g)
	e := New(Options{Capacity: 256, RepairK: repairK})
	h := e.RegisterStore(st)
	const seeds = 4
	var ps [seeds]algo.Params
	for s := range ps {
		ps[s] = seedParams(uint64(s))
		if _, err := e.Run(context.Background(), h, "changli", ps[s]); err != nil {
			b.Fatal(err)
		}
	}
	rng := xrand.New(7)
	var lat obs.Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rng.Bernoulli(0.05) {
			u, v := rng.Intn(st.N()), rng.Intn(st.N())
			if u != v && !st.AddEdge(u, v) {
				st.DeleteEdge(u, v)
			}
		}
		t0 := time.Now()
		if _, err := e.Run(context.Background(), h, "changli", ps[i%seeds]); err != nil {
			b.Fatal(err)
		}
		lat.Observe(time.Since(t0))
	}
	b.StopTimer()
	est := e.Stats()
	if lookups := est.Hits + est.Misses + est.Dedup; lookups > 0 {
		b.ReportMetric(float64(est.Hits+est.Dedup+est.RepairHits)/float64(lookups), "hit_rate")
	}
	if s := lat.Snapshot(); s.Count > 0 {
		b.ReportMetric(float64(s.Quantile(0.99)), "p99-ns")
		b.ReportMetric(float64(s.Quantile(0.50)), "p50-ns")
	}
}

// BenchmarkEngineChurnRepair serves the churn mix with delta repair on.
func BenchmarkEngineChurnRepair(b *testing.B) {
	benchChurn(b, 16)
}

// BenchmarkEngineChurnRecompute is the same workload with repair disabled:
// every invalidated fingerprint recomputes from scratch. The p99 gap to
// BenchmarkEngineChurnRepair is the repair speedup on the miss path.
func BenchmarkEngineChurnRecompute(b *testing.B) {
	benchChurn(b, 0)
}

// BenchmarkEngineStoreCachedQuery measures the store-handle resolve
// overhead on the hit path: snapshot resolution + fingerprint key vs the
// immutable handle of BenchmarkEngineCachedQuery.
func BenchmarkEngineStoreCachedQuery(b *testing.B) {
	g := benchGraph()
	st := store.New(g)
	e := New(Options{})
	h := e.RegisterStore(st)
	p := changliParams(benchParams())
	if _, err := e.Run(context.Background(), h, "changli", p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), h, "changli", p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHitTail(b, e)
}
