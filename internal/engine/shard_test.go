package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graphio"
	"repro/internal/store"
	"repro/internal/xrand"
)

// totalInflight sums singleflight occupancy across shards from Stats.
func totalInflight(e *Engine) int {
	n := 0
	for _, s := range e.Stats().Shards {
		n += s.Inflight
	}
	return n
}

func TestShardCountNormalization(t *testing.T) {
	cases := []struct {
		opt  Options
		want int
	}{
		{Options{}, defaultShards},
		{Options{Shards: 1}, 1},
		{Options{Shards: 3}, 4},
		{Options{Shards: 16}, 16},
		{Options{Capacity: 2, Shards: 16}, 2}, // clamped: per-shard capacity >= 1
		{Options{Capacity: 1, Shards: 8}, 1},
		{Options{Capacity: 1 << 20, Shards: 1<<63 - 1}, maxShards}, // absurd counts clamp, never spin
	}
	for _, c := range cases {
		if got := New(c.opt).NumShards(); got != c.want {
			t.Errorf("%+v: shards = %d, want %d", c.opt, got, c.want)
		}
	}
	// Total capacity is split exactly, remainder spread over leading shards.
	e := New(Options{Capacity: 100, Shards: 8})
	total := 0
	for _, sh := range e.shards {
		total += sh.cache.capacity
	}
	if total != 100 {
		t.Fatalf("shard capacities sum to %d, want 100", total)
	}
}

// TestShardRoutingIsStable pins that a key always routes to the same shard
// and that distinct fingerprints spread (statistically) across shards.
func TestShardRoutingIsStable(t *testing.T) {
	e := New(Options{Capacity: 64, Shards: 8})
	seen := make(map[uint64]int)
	for i := 0; i < 256; i++ {
		var fp graphio.Fingerprint
		fp[0] = byte(i)
		fp[1] = byte(i >> 8)
		key := cacheKey{fp: fp, key: "changli|eps=0.3"}
		idx := e.shardIndex(key)
		if again := e.shardIndex(key); again != idx {
			t.Fatal("routing is not deterministic")
		}
		seen[idx]++
	}
	if len(seen) < 4 {
		t.Fatalf("256 fingerprints landed on only %d of 8 shards", len(seen))
	}
}

// TestPerShardEviction is the satellite coverage for per-shard LRU: filling
// one shard past its capacity evicts only there, other shards retain their
// entries, and the Stats eviction counters match per-shard occupancy.
func TestPerShardEviction(t *testing.T) {
	const shards = 4
	const capacity = 8 // per-shard capacity 2
	e := New(Options{Capacity: capacity, Shards: shards})
	perShard := capacity / shards

	// Synthetic keyed entries via the do() path: cheap computes, keys
	// bucketed by the engine's own routing.
	byShard := make(map[uint64][]cacheKey)
	for i := 0; len(byShard[0]) < perShard+2 || len(byShard[1]) < 1; i++ {
		key := cacheKey{key: fmt.Sprintf("test|seed=%d", i)}
		idx := e.shardIndex(key)
		byShard[idx] = append(byShard[idx], key)
		if i > 1<<12 {
			t.Fatal("hash never hit shards 0 and 1")
		}
	}

	fill := func(key cacheKey) {
		t.Helper()
		if _, err := e.do(bg, key, func(context.Context) (any, error) { return key.key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// One resident entry in shard 1, then overflow shard 0 by two.
	other := byShard[1][0]
	fill(other)
	for _, key := range byShard[0][:perShard+2] {
		fill(key)
	}

	st := e.Stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if got := st.Shards[0]; got.Evictions != 2 || got.Entries != perShard {
		t.Fatalf("shard 0 stats %+v, want 2 evictions and %d entries", got, perShard)
	}
	if got := st.Shards[1]; got.Evictions != 0 || got.Entries != 1 {
		t.Fatalf("shard 1 stats %+v, want 0 evictions and 1 entry", got)
	}
	var entries int
	for _, s := range st.Shards {
		entries += s.Entries
	}
	if entries != perShard+1 {
		t.Fatalf("total entries = %d, want %d", entries, perShard+1)
	}
	// The other shard's entry survived the overflow: re-requesting is a hit.
	before := e.Stats().Hits
	fill(other)
	if e.Stats().Hits != before+1 {
		t.Fatal("shard 1 entry was disturbed by shard 0 overflow")
	}
}

// TestNoDanglingInflightUnderRacingCancel is the do() audit regression:
// many joiners pile on one key while the initiator's context is cancelled
// concurrently with the compute failing (ctx error or plain error). No
// schedule may leave an entry in any shard's singleflight table, and every
// joiner must get either a result or a definite error.
func TestNoDanglingInflightUnderRacingCancel(t *testing.T) {
	e := New(Options{})
	for round := 0; round < 40; round++ {
		key := cacheKey{key: fmt.Sprintf("test|race=%d", round)}
		plainError := round%2 == 1
		initiatorCtx, cancelInitiator := context.WithCancel(context.Background())
		computeStarted := make(chan struct{})

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = e.do(initiatorCtx, key, func(ctx context.Context) (any, error) {
				close(computeStarted)
				<-ctx.Done()
				if plainError {
					// A compute failure racing the cancel: surfaced as a
					// non-ctx error to every waiter.
					return nil, errors.New("compute failed")
				}
				return nil, ctx.Err()
			})
		}()
		<-computeStarted

		const joiners = 12
		results := make([]any, joiners)
		errs := make([]error, joiners)
		for j := 0; j < joiners; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				results[j], errs[j] = e.do(context.Background(), key, func(context.Context) (any, error) {
					return "retried", nil
				})
			}(j)
		}
		cancelInitiator() // race the cancel against the joiners parking
		wg.Wait()

		for j := 0; j < joiners; j++ {
			if plainError {
				// Joiners either saw the propagated compute error or raced
				// ahead/behind it and retried successfully.
				if errs[j] == nil && results[j] != "retried" {
					t.Fatalf("round %d joiner %d: (%v, %v)", round, j, results[j], errs[j])
				}
				if errs[j] != nil && !strings.Contains(errs[j].Error(), "compute failed") {
					t.Fatalf("round %d joiner %d: unexpected error %v", round, j, errs[j])
				}
			} else if errs[j] != nil || results[j] != "retried" {
				t.Fatalf("round %d joiner %d: (%v, %v), want retried", round, j, results[j], errs[j])
			}
		}
		if n := totalInflight(e); n != 0 {
			t.Fatalf("round %d: %d dangling inflight entries", round, n)
		}
		// The key is still serviceable afterwards.
		if v, err := e.do(bg, key, func(context.Context) (any, error) { return "fresh", nil }); err != nil {
			t.Fatalf("round %d: engine wedged: %v (%v)", round, err, v)
		}
	}
}

// blockingSpec registers a test-only registry algorithm whose runner
// handshakes with the test: it reports the edge count of the graph it was
// handed, so snapshot isolation is directly observable.
var blockingOnce sync.Once

var blockingGate struct {
	mu      sync.Mutex
	started chan struct{}
	release chan struct{}
}

func registerBlockingSpec() {
	blockingOnce.Do(func() {
		algo.Register(&algo.Spec{
			Name:    "enginetest-blocking",
			Summary: "test-only: blocks until released, reports M(g)",
			Caps:    algo.Capabilities{Kind: algo.KindDecomposition},
			Run: func(ctx context.Context, g *graph.Graph, p algo.Params) (*algo.Result, error) {
				blockingGate.mu.Lock()
				started, release := blockingGate.started, blockingGate.release
				blockingGate.mu.Unlock()
				if started != nil {
					close(started)
				}
				if release != nil {
					select {
					case <-release:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				res := &algo.Result{NumClusters: g.M()}
				res.ClusterOf = make([]int32, g.N())
				return res, nil
			},
		})
	})
}

// TestStoreSnapshotIsolationInFlight pins the acceptance property: a
// request resolves its snapshot at request start, so a mutation landing
// mid-compute does not leak into the in-flight computation, and the result
// records the snapshot it was computed against.
func TestStoreSnapshotIsolationInFlight(t *testing.T) {
	registerBlockingSpec()
	g := gen.Cycle(64) // 64 edges
	st := store.New(g)
	e := New(Options{})
	h := e.RegisterStore(st)
	oldFP := st.Snapshot().Fingerprint()

	blockingGate.mu.Lock()
	blockingGate.started = make(chan struct{})
	blockingGate.release = make(chan struct{})
	started, release := blockingGate.started, blockingGate.release
	blockingGate.mu.Unlock()

	type outcome struct {
		res *algo.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.Run(context.Background(), h, "enginetest-blocking", nil)
		done <- outcome{res, err}
	}()
	<-started
	// Mutate while the old-snapshot request is in flight.
	if !st.AddEdge(0, 32) {
		t.Fatal("AddEdge failed")
	}
	close(release)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.NumClusters != 64 {
		t.Fatalf("in-flight request saw %d edges, want the pre-mutation 64", out.res.NumClusters)
	}
	if out.res.Snapshot != oldFP.String() {
		t.Fatalf("result records snapshot %s, want %s", out.res.Snapshot, oldFP.Short())
	}

	// A fresh request resolves the new snapshot: new fingerprint, new cache
	// slot, post-mutation view.
	blockingGate.mu.Lock()
	blockingGate.started, blockingGate.release = nil, nil
	blockingGate.mu.Unlock()
	res2, err := e.Run(context.Background(), h, "enginetest-blocking", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.NumClusters != 65 {
		t.Fatalf("post-mutation request saw %d edges, want 65", res2.NumClusters)
	}
	if res2.Snapshot == out.res.Snapshot {
		t.Fatal("pre- and post-mutation results share a snapshot identity")
	}
	if st := e.Stats(); st.Computations != 2 {
		t.Fatalf("computations = %d, want 2 (one per snapshot)", st.Computations)
	}
	// The old snapshot's entry is still a live cache slot (it ages out via
	// LRU, not via invalidation): nothing to assert but absence of sweeps —
	// re-running against the new snapshot hits the cache.
	if _, err := e.Run(context.Background(), h, "enginetest-blocking", nil); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Computations != 2 {
		t.Fatal("post-mutation result was not cached")
	}
}

// TestStoreHandleServing drives Run and the batch queries through a store
// handle: mutation changes the served fingerprint, old results age out via
// LRU, and Balls runs on the overlay without materializing.
func TestStoreHandleServing(t *testing.T) {
	g := gen.GNP(200, 6.0/200, xrand.New(8))
	st := store.New(g)
	e := New(Options{})
	h := e.RegisterStore(st)
	p := testParams()

	d1, err := changli(bg, e, h, p)
	if err != nil {
		t.Fatal(err)
	}
	// Unchanged store: second request is a pure cache hit.
	if d2, err := changli(bg, e, h, p); err != nil || d2 != d1 {
		t.Fatalf("unchanged store missed the cache: %v", err)
	}
	// Mutation: same params, new snapshot, recompute.
	for i := 0; i < 5; i++ {
		if st.AddEdge(i, 100+i) {
			break
		}
	}
	d3, err := changli(bg, e, h, p)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("mutated store served the stale decomposition instance")
	}
	if got := e.Stats(); got.Computations != 2 {
		t.Fatalf("computations = %d, want 2", got.Computations)
	}

	// Balls on the overlay agree with balls on the materialized snapshot.
	snap := st.Snapshot()
	mat := snap.Graph()
	vs := []int32{0, 9, 150}
	got, _, err := e.Balls(bg, h, vs, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		want := mat.Ball(int(v), 2)
		if len(got[i]) != len(want) {
			t.Fatalf("vertex %d: ball size %d != %d", v, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("vertex %d: ball element %d mismatch", v, j)
			}
		}
	}
	if _, _, err := e.Balls(bg, h, []int32{int32(snap.N())}, 1, 1); err == nil {
		t.Fatal("out-of-range vertex accepted on store path")
	}

	// ClusterOf through the store handle stays consistent with Run.
	cl, _, err := e.ClusterOf(bg, h, changliParams(p), []int32{0, 42})
	if err != nil {
		t.Fatal(err)
	}
	if cl[0] != d3.ClusterOf[0] || cl[1] != d3.ClusterOf[42] {
		t.Fatal("ClusterOf disagrees with the current-snapshot decomposition")
	}
}

// TestQuerySnapshotMatchesStore pins the snapshot stamp of the point
// queries: after every mutation, ClusterOf and Balls report the version
// their answer was computed on, which is the store's current one.
func TestQuerySnapshotMatchesStore(t *testing.T) {
	st := store.New(gen.Cycle(40))
	e := New(Options{})
	h := e.RegisterStore(st)
	p := changliParams(testParams())
	check := func(step string) {
		t.Helper()
		want := st.Snapshot().Fingerprint().String()
		if _, got, err := e.ClusterOf(bg, h, p, []int32{0, 7}); err != nil || got != want {
			t.Fatalf("%s: ClusterOf snapshot %q (err %v), want %q", step, got, err, want)
		}
		if _, got, err := e.Balls(bg, h, []int32{3}, 2, 1); err != nil || got != want {
			t.Fatalf("%s: Balls snapshot %q (err %v), want %q", step, got, err, want)
		}
	}
	check("initial")
	for i := 0; i < 4; i++ {
		if !st.AddEdge(i, 20+i) {
			t.Fatalf("AddEdge(%d,%d) rejected", i, 20+i)
		}
		check(fmt.Sprintf("add %d", i))
		if !st.DeleteEdge(i, i+1) {
			t.Fatalf("DeleteEdge(%d,%d) rejected", i, i+1)
		}
		check(fmt.Sprintf("delete %d", i))
	}
}

// TestStoreChurnAgesOutEntries pins the no-invalidation-sweep design: under
// mutation churn each snapshot computes into its own LRU slot and old slots
// are evicted by capacity pressure alone.
func TestStoreChurnAgesOutEntries(t *testing.T) {
	st := store.New(gen.Cycle(60))
	e := New(Options{Capacity: 4, Shards: 1})
	h := e.RegisterStore(st)
	p := testParams()
	for i := 0; i < 8; i++ {
		if _, err := changli(bg, e, h, p); err != nil {
			t.Fatal(err)
		}
		if !st.AddEdge(i, 30+i) {
			t.Fatalf("AddEdge(%d,%d) rejected", i, 30+i)
		}
	}
	got := e.Stats()
	if got.Computations != 8 {
		t.Fatalf("computations = %d, want 8 (one per snapshot)", got.Computations)
	}
	if got.Evictions != 4 {
		t.Fatalf("evictions = %d, want 4 (capacity pressure only)", got.Evictions)
	}
}

// TestStatsTotals pins the aggregate helpers the HTTP serving layer reports
// from: the sums must match the per-shard breakdown.
func TestStatsTotals(t *testing.T) {
	// Ample per-shard capacity: all 5 keys stay resident however the hash
	// distributes them (a tight capacity would LRU-evict within one shard).
	e := New(Options{Capacity: 32, Shards: 4})
	bg := context.Background()
	for i := 0; i < 5; i++ {
		key := cacheKey{key: fmt.Sprintf("totals|%d", i)}
		if _, err := e.do(bg, key, func(context.Context) (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	wantEntries, wantInflight := 0, 0
	for _, sh := range st.Shards {
		wantEntries += sh.Entries
		wantInflight += sh.Inflight
	}
	if st.EntriesTotal() != wantEntries || wantEntries != 5 {
		t.Fatalf("EntriesTotal %d, per-shard sum %d, want 5", st.EntriesTotal(), wantEntries)
	}
	if st.InflightTotal() != wantInflight || wantInflight != 0 {
		t.Fatalf("InflightTotal %d, per-shard sum %d, want 0", st.InflightTotal(), wantInflight)
	}
}
