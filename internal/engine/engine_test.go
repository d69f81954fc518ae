package engine

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph/gen"
	"repro/internal/graphio"
	"repro/internal/ldd"
	"repro/internal/xrand"
)

// bg is the uncancellable context of the plain request-path tests.
var bg = context.Background()

func testParams() ldd.Params {
	return ldd.Params{Epsilon: 0.3, Seed: 11, Scale: 0.05}
}

// changliParams is the changli registry bag for p; workers and ntilde
// appear only when set.
func changliParams(p ldd.Params) algo.Params {
	q := algo.Params{
		"eps":   strconv.FormatFloat(p.Epsilon, 'g', -1, 64),
		"seed":  strconv.FormatUint(p.Seed, 10),
		"scale": strconv.FormatFloat(p.Scale, 'g', -1, 64),
		"skip2": strconv.FormatBool(p.SkipPhase2),
	}
	if p.NTilde != 0 {
		q["ntilde"] = strconv.Itoa(p.NTilde)
	}
	if p.Workers != 0 {
		q["workers"] = strconv.Itoa(p.Workers)
	}
	return q
}

// changli serves the changli decomposition of src under p through Run.
func changli(ctx context.Context, e *Engine, src Source, p ldd.Params) (*ldd.Decomposition, error) {
	res, err := e.Run(ctx, src, "changli", changliParams(p))
	if err != nil {
		return nil, err
	}
	return res.Raw.(*ldd.Decomposition), nil
}

func TestSingleflight64Goroutines(t *testing.T) {
	g := gen.GNP(600, 8.0/600, xrand.New(5))
	e := New(Options{})
	h := e.Register(g)
	p := testParams()

	const goroutines = 64
	results := make([]*ldd.Decomposition, goroutines)
	errs := make([]error, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			results[i], errs[i] = changli(bg, e, h, p)
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different result instance", i)
		}
	}
	st := e.Stats()
	if st.Computations != 1 {
		t.Fatalf("64 identical requests ran %d computations, want exactly 1", st.Computations)
	}
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Dedup != goroutines-1 {
		t.Fatalf("hits+dedup = %d+%d, want %d", st.Hits, st.Dedup, goroutines-1)
	}

	// Bit-identical to a direct run with the same seed (and to a direct
	// run with a different worker count, which shares the cache key).
	direct := must(ldd.ChangLiCtx(context.Background(), g, p))
	pw := p
	pw.Workers = 3
	if got, err := changli(bg, e, h, pw); err != nil || got != results[0] {
		t.Fatalf("Workers-only param change missed the cache: %v %v", got, err)
	}
	if len(direct.ClusterOf) != len(results[0].ClusterOf) {
		t.Fatal("length mismatch vs direct run")
	}
	for v := range direct.ClusterOf {
		if direct.ClusterOf[v] != results[0].ClusterOf[v] {
			t.Fatalf("vertex %d: engine %d != direct %d", v, results[0].ClusterOf[v], direct.ClusterOf[v])
		}
	}
}

func TestCacheHitDoesZeroWork(t *testing.T) {
	g := gen.Cycle(400)
	e := New(Options{})
	h := e.Register(g)
	p := testParams()
	if _, err := changli(bg, e, h, p); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	for i := 0; i < 100; i++ {
		if _, err := changli(bg, e, h, p); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Stats()
	if after.Computations != before.Computations {
		t.Fatalf("cache hits ran %d extra computations", after.Computations-before.Computations)
	}
	if after.Hits != before.Hits+100 {
		t.Fatalf("hits went %d -> %d, want +100", before.Hits, after.Hits)
	}
}

func TestDistinctParamsAndAlgorithmsMiss(t *testing.T) {
	g := gen.Grid(12, 12)
	e := New(Options{})
	h := e.Register(g)
	p := testParams()
	p2 := p
	p2.Seed++
	if _, err := changli(bg, e, h, p); err != nil {
		t.Fatal(err)
	}
	if _, err := changli(bg, e, h, p2); err != nil {
		t.Fatal(err)
	}
	sc := algo.Params{"lambda": "0.5", "seed": "2"}
	nd := algo.Params{"lambda": "0.5", "seed": "3"}
	if _, err := e.Run(bg, h, "sparsecover", sc); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(bg, h, "netdecomp", nd); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Computations != 4 {
		t.Fatalf("4 distinct requests ran %d computations", st.Computations)
	}
	// All four now served from cache.
	changli(bg, e, h, p)
	changli(bg, e, h, p2)
	e.Run(bg, h, "sparsecover", sc)
	e.Run(bg, h, "netdecomp", nd)
	if st := e.Stats(); st.Computations != 4 {
		t.Fatalf("cache round ran %d computations, want 4", st.Computations)
	}
}

func TestLRUEviction(t *testing.T) {
	g := gen.Cycle(200)
	// One shard pins global LRU order; multi-shard eviction is covered by
	// TestPerShardEviction.
	e := New(Options{Capacity: 2, Shards: 1})
	h := e.Register(g)
	p := testParams()
	for seed := uint64(0); seed < 3; seed++ {
		pp := p
		pp.Seed = seed
		if _, err := changli(bg, e, h, pp); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// seed 0 was evicted; re-requesting recomputes it.
	pp := p
	pp.Seed = 0
	if _, err := changli(bg, e, h, pp); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Computations != 4 {
		t.Fatalf("computations = %d, want 4 after eviction refill", st.Computations)
	}
	// seed 2 is still resident (most recently used before the refill).
	pp.Seed = 2
	changli(bg, e, h, pp)
	if st := e.Stats(); st.Computations != 4 {
		t.Fatalf("resident entry recomputed (computations = %d)", st.Computations)
	}
}

func TestRegisterCollapsesEqualGraphs(t *testing.T) {
	// The same graph loaded through two different formats must share one
	// cache: serialize through edge-list and DIMACS and re-read.
	g := gen.GNP(150, 0.06, xrand.New(9))
	var el, dm bytes.Buffer
	if err := graphio.Write(&el, graphio.EdgeList, g); err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(&dm, graphio.DIMACS, g); err != nil {
		t.Fatal(err)
	}
	g1, err := graphio.Read(&el, graphio.EdgeList)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graphio.Read(strings.NewReader(dm.String()), graphio.DIMACS)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	h1 := e.Register(g1)
	h2 := e.Register(g2)
	if h1.Fingerprint() != h2.Fingerprint() {
		t.Fatal("formats produced different fingerprints")
	}
	if h1.Graph() != h2.Graph() {
		t.Fatal("equal-fingerprint graphs not collapsed to one instance")
	}
	p := testParams()
	changli(bg, e, h1, p)
	changli(bg, e, h2, p)
	if st := e.Stats(); st.Computations != 1 {
		t.Fatalf("cross-handle requests ran %d computations, want 1", st.Computations)
	}
}

func TestClusterOfBatch(t *testing.T) {
	g := gen.Grid(10, 10)
	e := New(Options{})
	h := e.Register(g)
	p := testParams()
	d, err := changli(bg, e, h, p)
	if err != nil {
		t.Fatal(err)
	}
	vs := []int32{0, 5, 99, 42}
	got, snapshot, err := e.ClusterOf(bg, h, changliParams(p), vs)
	if err != nil {
		t.Fatal(err)
	}
	if snapshot != h.Fingerprint().String() {
		t.Fatalf("snapshot %q, want %q", snapshot, h.Fingerprint())
	}
	for i, v := range vs {
		if got[i] != d.ClusterOf[v] {
			t.Fatalf("vertex %d: got cluster %d, want %d", v, got[i], d.ClusterOf[v])
		}
	}
	if _, _, err := e.ClusterOf(bg, h, changliParams(p), []int32{100}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if st := e.Stats(); st.Computations != 1 {
		t.Fatalf("batch query recomputed (computations = %d)", st.Computations)
	}
}

func TestBallsBatch(t *testing.T) {
	g := gen.GNP(300, 5.0/300, xrand.New(2))
	e := New(Options{})
	h := e.Register(g)
	vs := []int32{0, 17, 123, 299, 17}
	for _, workers := range []int{1, 4} {
		got, _, err := e.Balls(bg, h, vs, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vs {
			want := g.Ball(int(v), 2)
			if len(got[i]) != len(want) {
				t.Fatalf("workers=%d vertex %d: ball size %d != %d", workers, v, len(got[i]), len(want))
			}
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("workers=%d vertex %d: ball element %d mismatch", workers, v, j)
				}
			}
		}
	}
}

func TestBallsValidatesVertices(t *testing.T) {
	g := gen.Cycle(10)
	e := New(Options{})
	h := e.Register(g)
	for _, v := range []int32{-1, 10} {
		if _, _, err := e.Balls(bg, h, []int32{0, v}, 1, 2); err == nil {
			t.Fatalf("vertex %d accepted", v)
		}
	}
	if got, _, err := e.Balls(bg, h, nil, 1, 0); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v %v", got, err)
	}
}

func TestUnregisterDropsGraphAndCache(t *testing.T) {
	g := gen.Cycle(100)
	e := New(Options{})
	h := e.Register(g)
	p := testParams()
	if _, err := changli(bg, e, h, p); err != nil {
		t.Fatal(err)
	}
	e.Unregister(h)
	if st := e.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// The old handle still works; the result is recomputed and re-cached.
	if _, err := changli(bg, e, h, p); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Computations != 2 {
		t.Fatalf("computations = %d, want 2 after unregister", st.Computations)
	}
	// A fresh registration no longer collapses onto the dropped instance.
	h2 := e.Register(gen.Cycle(100))
	if h2.Fingerprint() != h.Fingerprint() {
		t.Fatal("fingerprint changed")
	}
}

func TestComputePanicBecomesError(t *testing.T) {
	e := New(Options{})
	key := cacheKey{key: "test|panic"}
	_, err := e.do(bg, key, func(context.Context) (any, error) { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not surfaced as error: %v", err)
	}
	// The failed computation is not cached: a later request recomputes.
	v, err := e.do(bg, key, func(context.Context) (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("recovery request failed: %v %v", v, err)
	}
	if st := e.Stats(); st.Computations != 2 {
		t.Fatalf("computations = %d, want 2", st.Computations)
	}
}

func TestErrorsWrapNothingWeird(t *testing.T) {
	// Engine errors are plain wrapped errors, usable with errors.Is/As.
	e := New(Options{})
	_, err := e.do(bg, cacheKey{key: "x"}, func(context.Context) (any, error) { panic(errors.New("inner")) })
	if err == nil {
		t.Fatal("expected error")
	}
}

// must returns v, panicking on err; the runs it wraps cannot be cancelled.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
