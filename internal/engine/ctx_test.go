package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/graph/gen"
	"repro/internal/ldd"
	"repro/internal/xrand"
)

// TestRunRegistryPath drives the generic name-indexed request path: every
// registered algorithm family is servable through the engine, cached by
// (fingerprint, algo, params).
func TestRunRegistryPath(t *testing.T) {
	g := gen.Cycle(150)
	e := New(Options{})
	h := e.Register(g)
	cases := []struct {
		name string
		p    algo.Params
	}{
		{"changli", algo.Params{"eps": "0.3", "scale": "0.05"}},
		{"weighted", algo.Params{"eps": "0.3", "scale": "0.05"}},
		{"en", algo.Params{"lambda": "0.4"}},
		{"mpx", algo.Params{"lambda": "0.4"}},
		{"blackbox", algo.Params{"eps": "0.3", "scale": "0.05"}},
		{"sparsecover", algo.Params{"lambda": "0.5"}},
		{"netdecomp", algo.Params{"lambda": "0.5"}},
		{"packing", algo.Params{"problem": "mis", "prep": "2"}},
		{"covering", algo.Params{"problem": "vc", "prep": "2"}},
		{"gkm", algo.Params{"problem": "mis", "scale": "0.4"}},
		{"solve", algo.Params{"problem": "mis"}},
	}
	for _, c := range cases {
		res, err := e.Run(context.Background(), h, c.name, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Algorithm != c.name {
			t.Fatalf("%s: envelope says %q", c.name, res.Algorithm)
		}
		// Second request is a cache hit returning the same instance.
		res2, err := e.Run(context.Background(), h, c.name, c.p)
		if err != nil || res2 != res {
			t.Fatalf("%s: cache miss on identical request (%v)", c.name, err)
		}
	}
	if st := e.Stats(); st.Computations != uint64(len(cases)) {
		t.Fatalf("computations = %d, want %d", st.Computations, len(cases))
	}
	if _, err := e.Run(context.Background(), h, "nope", nil); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := e.Run(context.Background(), h, "changli", algo.Params{"bogus": "1"}); err == nil {
		t.Fatal("unknown param accepted")
	}
}

// TestClusterOfSharesRunCache pins the shared cache slot of the two ways
// to ask for a changli decomposition: ClusterOf after Run("changli") with
// the same parameters, spelled differently, computes nothing.
func TestClusterOfSharesRunCache(t *testing.T) {
	g := gen.Grid(12, 12)
	e := New(Options{})
	h := e.Register(g)
	res, err := e.Run(context.Background(), h, "changli",
		algo.Params{"eps": "0.3", "seed": "11", "scale": "0.05"})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats().Computations
	vs := []int32{0, 77, 143}
	got, _, err := e.ClusterOf(context.Background(), h,
		algo.Params{"eps": "0.30", "seed": "11", "scale": ".05", "skip2": "false", "workers": "2"}, vs)
	if err != nil {
		t.Fatal(err)
	}
	if after := e.Stats().Computations; after != before {
		t.Fatalf("ClusterOf after Run ran %d computations, want 0", after-before)
	}
	for i, v := range vs {
		if got[i] != res.ClusterOf[v] {
			t.Fatalf("vertex %d: cluster %d, Run says %d", v, got[i], res.ClusterOf[v])
		}
	}
}

// TestDeadlineBoundedRequest verifies a deadline-expired request returns
// promptly with context.DeadlineExceeded, the error is not cached, and the
// engine remains serviceable. The deadline is calibrated against one
// uncancelled run of the same request, so it lands mid-run however fast the
// machine is; if the run still beats it, the deadline is halved until the
// run must observe it. Each attempt gets a fresh engine, since a finished
// attempt caches its result and would answer the next one.
func TestDeadlineBoundedRequest(t *testing.T) {
	g := gen.RandomRegular(8000, 4, xrand.New(7))
	p := ldd.Params{Epsilon: 0.1, Seed: 3} // paper constants: many cancellation checks
	cal := New(Options{})
	start := time.Now()
	if _, err := changli(context.Background(), cal, cal.Register(g), p); err != nil {
		t.Fatalf("uncancelled request failed: %v", err)
	}
	full := time.Since(start)
	for budget := full / 4; ; budget /= 2 {
		e := New(Options{})
		h := e.Register(g)
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		start := time.Now()
		_, err := changli(ctx, e, h, p)
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			if budget < time.Microsecond {
				t.Fatalf("request ignored every deadline down to %v (full run %v)", budget, full)
			}
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("deadline-bounded request held for %v", elapsed)
		}
		if st := e.Stats(); st.Cancellations == 0 {
			t.Fatal("cancellation not counted")
		}
		// The failure was not cached: the same request without a deadline
		// computes afresh and succeeds.
		before := e.Stats().Computations
		if _, err := changli(context.Background(), e, h, p); err != nil {
			t.Fatalf("engine unusable after deadline: %v", err)
		}
		if after := e.Stats().Computations; after != before+1 {
			t.Fatalf("request after the deadline ran %d computations, want 1", after-before)
		}
		t.Logf("deadline %v hit after %v (full run %v)", budget, elapsed, full)
		return
	}
}

// TestJoinerAbandonsWaitOnCancel verifies a singleflight joiner whose own
// context dies stops waiting without disturbing the initiator's
// computation.
func TestJoinerAbandonsWaitOnCancel(t *testing.T) {
	e := New(Options{})
	release := make(chan struct{})
	key := cacheKey{key: "test|slow"}

	var initiator sync.WaitGroup
	initiator.Add(1)
	started := make(chan struct{})
	go func() {
		defer initiator.Done()
		_, _ = e.do(context.Background(), key, func(context.Context) (any, error) {
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := e.do(ctx, key, func(context.Context) (any, error) { return nil, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("joiner err = %v, want context.Canceled", err)
	}

	close(release)
	initiator.Wait()
	// The initiator's result was cached despite the joiner bailing.
	v, err := e.do(context.Background(), key, func(context.Context) (any, error) { return nil, nil })
	if err != nil || v.(int) != 42 {
		t.Fatalf("initiator result lost: %v %v", v, err)
	}
	st := e.Stats()
	if st.Dedup != 1 || st.Cancellations != 1 {
		t.Fatalf("dedup=%d cancellations=%d, want 1 and 1", st.Dedup, st.Cancellations)
	}
}

// TestJoinerRetriesAfterInitiatorCancelled verifies the foreign-cancel
// path: when the initiating request is cancelled mid-compute, a joiner
// with a live context retries the computation itself instead of
// propagating the stranger's cancellation.
func TestJoinerRetriesAfterInitiatorCancelled(t *testing.T) {
	e := New(Options{})
	key := cacheKey{key: "test|retry"}
	initiatorCtx, cancelInitiator := context.WithCancel(context.Background())

	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = e.do(initiatorCtx, key, func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
	}()
	<-started

	joined := make(chan struct{})
	var joinVal any
	var joinErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(joined)
		joinVal, joinErr = e.do(context.Background(), key, func(context.Context) (any, error) {
			return "recomputed", nil
		})
	}()
	<-joined
	time.Sleep(20 * time.Millisecond) // let the joiner park on the entry
	cancelInitiator()
	wg.Wait()

	if joinErr != nil || joinVal != "recomputed" {
		t.Fatalf("joiner got (%v, %v), want recomputed", joinVal, joinErr)
	}
	if st := e.Stats(); st.Computations != 2 {
		t.Fatalf("computations = %d, want 2 (cancelled + retry)", st.Computations)
	}
}

// TestEvictionAndDedupCountersExposed pins the Stats satellite: evictions
// and dedup joins are counted and visible in a snapshot.
func TestEvictionAndDedupCountersExposed(t *testing.T) {
	g := gen.Cycle(120)
	e := New(Options{Capacity: 1, Shards: 1})
	h := e.Register(g)
	for seed := uint64(0); seed < 3; seed++ {
		if _, err := changli(context.Background(), e, h, ldd.Params{Epsilon: 0.3, Seed: seed, Scale: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}
