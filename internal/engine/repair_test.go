package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph/gen"
	"repro/internal/ldd"
	"repro/internal/store"
	"repro/internal/xrand"
)

var errVertexCount = errors.New("decomposition does not cover the snapshot")

// repairTestStore builds a store-backed engine with repair enabled over a
// GNP graph large enough that full recomputes dominate repair costs.
func repairTestStore(t *testing.T, o Options) (*Engine, StoreHandle, *store.Store) {
	t.Helper()
	g := gen.GNP(800, 6.0/800, xrand.New(7))
	st := store.New(g)
	e := New(o)
	return e, e.RegisterStore(st), st
}

func TestRepairHitAfterMutation(t *testing.T) {
	e, h, st := repairTestStore(t, Options{RepairK: 8})
	p := testParams()
	if _, err := changli(bg, e, h, p); err != nil {
		t.Fatal(err)
	}
	if !st.AddEdge(1, 5) {
		t.Fatal("AddEdge failed")
	}
	d, err := changli(bg, e, h, p)
	if err != nil {
		t.Fatal(err)
	}
	est := e.Stats()
	if est.RepairHits != 1 {
		t.Fatalf("RepairHits = %d, want 1 (stats %+v)", est.RepairHits, est)
	}
	if len(d.ClusterOf) != st.N() {
		t.Fatalf("repaired decomposition covers %d vertices, want %d", len(d.ClusterOf), st.N())
	}
	// The repaired result is cached under the new fingerprint: the next
	// request is an exact hit.
	if _, err := changli(bg, e, h, p); err != nil {
		t.Fatal(err)
	}
	if est = e.Stats(); est.Hits != 1 {
		t.Fatalf("Hits = %d after repeat, want 1", est.Hits)
	}
}

func TestRepairDisabledByDefault(t *testing.T) {
	e, h, st := repairTestStore(t, Options{})
	p := testParams()
	if _, err := changli(bg, e, h, p); err != nil {
		t.Fatal(err)
	}
	st.AddEdge(1, 5)
	if _, err := changli(bg, e, h, p); err != nil {
		t.Fatal(err)
	}
	est := e.Stats()
	if est.RepairHits != 0 || est.RepairFallbacks != 0 {
		t.Fatalf("repair counters moved with RepairK=0: %+v", est)
	}
	if est.Computations != 2 {
		t.Fatalf("Computations = %d, want 2 full runs", est.Computations)
	}
}

func TestRepairCancellingDeltaRestamps(t *testing.T) {
	e, h, st := repairTestStore(t, Options{RepairK: 8})
	p := testParams()
	d0, err := changli(bg, e, h, p)
	if err != nil {
		t.Fatal(err)
	}
	// Add then delete the same edge: a new fingerprint over an identical
	// edge set. The repair path must detect the empty net delta and serve
	// the cached decomposition without recomputing.
	if !st.AddEdge(2, 9) || !st.DeleteEdge(2, 9) {
		t.Fatal("mutations failed")
	}
	d1, err := changli(bg, e, h, p)
	if err != nil {
		t.Fatal(err)
	}
	if est := e.Stats(); est.RepairHits != 1 || est.RepairedClusters != 0 {
		t.Fatalf("stats %+v, want one zero-work repair hit", est)
	}
	for v := range d0.ClusterOf {
		if d0.ClusterOf[v] != d1.ClusterOf[v] {
			t.Fatalf("restamped decomposition differs at vertex %d", v)
		}
	}
}

func TestRepairBeyondWindowFallsBack(t *testing.T) {
	e, h, st := repairTestStore(t, Options{RepairK: 2})
	p := testParams()
	if _, err := changli(bg, e, h, p); err != nil {
		t.Fatal(err)
	}
	// Three mutations put the cached ancestor outside the 2-delta window.
	st.AddEdge(1, 5)
	st.AddEdge(2, 6)
	st.AddEdge(3, 7)
	if _, err := changli(bg, e, h, p); err != nil {
		t.Fatal(err)
	}
	est := e.Stats()
	if est.RepairHits != 0 || est.RepairFallbacks != 1 {
		t.Fatalf("stats %+v, want 0 repair hits and 1 fallback", est)
	}
}

func TestRepairGenerationCap(t *testing.T) {
	e, h, st := repairTestStore(t, Options{RepairK: 8, RepairMaxGen: 2})
	p := testParams()
	if _, err := changli(bg, e, h, p); err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{1, 5}, {2, 6}, {3, 7}, {4, 8}, {5, 9}}
	for _, m := range pairs {
		if !st.AddEdge(m[0], m[1]) {
			t.Fatalf("AddEdge%v failed", m)
		}
		if _, err := changli(bg, e, h, p); err != nil {
			t.Fatal(err)
		}
	}
	est := e.Stats()
	// Generations 1 and 2 repair; the third attempt hits the cap and
	// recomputes (resetting the chain), then the cycle restarts.
	if est.RepairHits == 0 {
		t.Fatal("no repairs happened at all")
	}
	if est.RepairHits >= uint64(len(pairs)) {
		t.Fatalf("RepairHits = %d over %d epochs: generation cap never fired", est.RepairHits, len(pairs))
	}
	if est.RepairFallbacks == 0 {
		t.Fatal("generation cap produced no fallback")
	}
}

func TestRepairSparseCoverPath(t *testing.T) {
	e, h, st := repairTestStore(t, Options{RepairK: 8})
	p := algo.Params{"lambda": "0.3", "seed": "3"}
	if _, err := e.Run(bg, h, "sparsecover", p); err != nil {
		t.Fatal(err)
	}
	if !st.AddEdge(1, 5) {
		t.Fatal("AddEdge failed")
	}
	r, err := e.Run(bg, h, "sparsecover", p)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Raw.(*ldd.Cover)
	if est := e.Stats(); est.RepairHits != 1 {
		t.Fatalf("RepairHits = %d, want 1", est.RepairHits)
	}
	// The repaired cover must still cover the added edge.
	ok := false
	for _, cu := range c.MemberOf[1] {
		for _, cv := range c.MemberOf[5] {
			if cu == cv {
				ok = true
			}
		}
	}
	if !ok {
		t.Fatal("repaired cover does not cover the added edge")
	}
}

func TestRepairGenericRunPath(t *testing.T) {
	e, h, st := repairTestStore(t, Options{RepairK: 8})
	p := algo.Params{"eps": "0.3", "seed": "11", "scale": "0.05"}
	if _, err := e.Run(bg, h, "changli", p); err != nil {
		t.Fatal(err)
	}
	st.AddEdge(1, 5)
	r, err := e.Run(bg, h, "changli", p)
	if err != nil {
		t.Fatal(err)
	}
	if est := e.Stats(); est.RepairHits != 1 {
		t.Fatalf("RepairHits = %d, want 1", est.RepairHits)
	}
	if r.Metrics["repair_gen"] != 1 {
		t.Fatalf("repair_gen = %v, want 1", r.Metrics["repair_gen"])
	}
	// netdecomp has no Repairer: its misses under churn recompute.
	if nd, ok := algo.Get("netdecomp"); ok && !nd.Caps.Repairable {
		if _, err := e.Run(bg, h, "netdecomp", algo.Params{"lambda": "0.3", "seed": "1"}); err != nil {
			t.Fatal(err)
		}
		st.AddEdge(2, 6)
		if _, err := e.Run(bg, h, "netdecomp", algo.Params{"lambda": "0.3", "seed": "1"}); err != nil {
			t.Fatal(err)
		}
		if est := e.Stats(); est.RepairHits != 1 {
			t.Fatalf("non-repairable family moved RepairHits to %d", est.RepairHits)
		}
	}
}

// TestRepairConcurrentChurn races repairs against mutations and
// compactions: goroutines querying through the repair path while others
// mutate the store and periodically fold the overlay. Run under -race in
// CI; correctness here is "no crash, every answer covers the snapshot it
// resolved".
func TestRepairConcurrentChurn(t *testing.T) {
	e, h, st := repairTestStore(t, Options{RepairK: 8, Capacity: 256})
	p := testParams()
	for _, seed := range []uint64{11, 12, 13} {
		q := p
		q.Seed = seed
		if _, err := changli(bg, e, h, q); err != nil {
			t.Fatal(err)
		}
	}
	const (
		readers = 4
		writers = 2
		muts    = 60
	)
	var wg sync.WaitGroup
	var writersDone atomic.Int32
	errCh := make(chan error, readers+writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersDone.Add(1)
			rng := xrand.Stream(99, w, 0xc0de)
			for i := 0; i < muts; i++ {
				u, v := rng.Intn(st.N()), rng.Intn(st.N())
				if u == v {
					continue
				}
				if rng.Bernoulli(0.5) {
					st.AddEdge(u, v)
				} else {
					st.DeleteEdge(u, v)
				}
				if i%25 == 24 {
					if _, err := st.Compact(); err != nil {
						errCh <- err
						return
					}
				}
				runtime.Gosched() // let readers interleave with the churn
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			seeds := []uint64{11, 12, 13}
			// Keep querying while the writers churn so misses land on
			// fingerprints with live ancestry windows.
			for i := 0; writersDone.Load() < writers || i < len(seeds); i++ {
				q := p
				q.Seed = seeds[i%len(seeds)]
				d, err := changli(bg, e, h, q)
				if err != nil {
					errCh <- err
					return
				}
				if len(d.ClusterOf) != st.N() {
					errCh <- errVertexCount
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	est := e.Stats()
	t.Logf("churn race: %d hits, %d misses, %d repairs, %d fallbacks",
		est.Hits, est.Misses, est.RepairHits, est.RepairFallbacks)
}
