package algo

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// cancelTestGraph is large enough that a paper-constants ChangLi run spans
// many cancellation checks, so a deadline or cancel that fires a fraction
// of a full run in lands mid-computation.
func cancelTestGraph() *graph.Graph {
	return gen.RandomRegular(20000, 4, xrand.New(7))
}

// runCancelled launches the named algorithm on a goroutine, cancels the
// context after the given delay, and returns (error, wall time from cancel
// to return). The error is nil if the run finished before it saw the
// cancel.
func runCancelled(t *testing.T, g *graph.Graph, name string, p Params, after time.Duration) (error, time.Duration) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := make(chan error, 1)
	go func() {
		_, err := Run(ctx, name, g, p)
		ch <- err
	}()
	time.Sleep(after)
	cancelAt := time.Now()
	cancel()
	select {
	case err := <-ch:
		return err, time.Since(cancelAt)
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: cancelled run did not return within 30s", name)
		return nil, 0
	}
}

// cancelMidRun times one uncancelled run of the request, then repeats it
// and cancels a quarter of that time in, halving the delay until an attempt
// is actually cancelled, so the cancel lands mid-run however fast the
// machine or the algorithm is. It fails the test if every attempt down to a
// 1µs delay completes, and returns what runCancelled returned for the
// cancelled attempt.
func cancelMidRun(t *testing.T, g *graph.Graph, name string, p Params) (error, time.Duration) {
	t.Helper()
	start := time.Now()
	if _, err := Run(context.Background(), name, g, p); err != nil {
		t.Fatalf("%s: uncancelled run failed: %v", name, err)
	}
	full := time.Since(start)
	for after := full / 4; ; after /= 2 {
		if err, latency := runCancelled(t, g, name, p, after); err != nil {
			return err, latency
		}
		if after < time.Microsecond {
			t.Fatalf("%s: every run finished despite a cancel down to %v in (full run %v)", name, after, full)
		}
	}
}

// TestCancelMidDecompositionReturnsPromptly is the satellite acceptance
// test: cancelling a large paper-constants decomposition mid-run returns
// context.Canceled promptly (well before the multi-second full runtime),
// leaks no goroutines, and leaves the pooled workspaces reusable.
func TestCancelMidDecompositionReturnsPromptly(t *testing.T) {
	g := cancelTestGraph()
	before := runtime.NumGoroutine()

	err, latency := cancelMidRun(t, g, "changli", Params{"eps": "0.1", "seed": "3"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if latency > 5*time.Second {
		t.Fatalf("cancelled run took %v to return", latency)
	}

	// No goroutine leaks: the worker pool must drain after cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}

	// Pooled workspaces stay reusable: a fresh small run on the same pool
	// completes and produces a valid separation.
	small := gen.Cycle(400)
	res, err := Run(context.Background(), "changli", small, Params{"eps": "0.3", "scale": "0.05", "seed": "1"})
	if err != nil {
		t.Fatalf("post-cancel run failed: %v", err)
	}
	if res.NumClusters == 0 {
		t.Fatal("post-cancel run produced no clusters")
	}
}

// TestDeadlineBoundedRun proves the deadline path: a request with a tight
// deadline returns context.DeadlineExceeded instead of holding the caller
// for the full decomposition. The deadline is calibrated against an
// uncancelled run of the same request, so it lands mid-run however fast
// the machine or the decomposition is; if the run still beats it, the
// deadline is halved until the run must observe it.
func TestDeadlineBoundedRun(t *testing.T) {
	g := cancelTestGraph()
	p := Params{"eps": "0.1", "seed": "3"}
	start := time.Now()
	if _, err := Run(context.Background(), "changli", g, p); err != nil {
		t.Fatalf("uncancelled run failed: %v", err)
	}
	full := time.Since(start)
	for budget := full / 4; ; budget /= 2 {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		start := time.Now()
		_, err := Run(ctx, "changli", g, p)
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			if budget < time.Microsecond {
				t.Fatalf("run ignored every deadline down to %v (full run %v)", budget, full)
			}
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("deadline-bounded run held for %v", elapsed)
		}
		t.Logf("deadline %v hit after %v (full run %v)", budget, elapsed, full)
		return
	}
}

// TestCancelSweepAllFamilies cancels every registered family mid-run, with
// the delay calibrated per family, and verifies each returns
// context.Canceled and still completes cleanly afterwards.
func TestCancelSweepAllFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-family cancel sweep is slow")
	}
	big := cancelTestGraph()
	small := gen.Cycle(100)
	for _, name := range Names() {
		graphFor := big
		p := Params{}
		switch name {
		case "packing", "covering", "gkm":
			// ILP instance build is itself O(n); mid-size keeps the sweep fast
			// while leaving enough work to cancel into.
			graphFor = gen.RandomRegular(3000, 4, xrand.New(9))
			if name == "gkm" {
				p = Params{"scale": "0.4"}
			}
		case "solve":
			// Only the branch-and-bound search polls the context: a
			// whole-graph greedy solve runs to completion in well under a
			// millisecond, often before the cancel is scheduled. MIS on a
			// 34-vertex 4-regular graph is exact-searched for tens of
			// milliseconds.
			graphFor = gen.RandomRegular(34, 4, xrand.New(9))
			p = Params{"maxexact": "34"}
		case "en", "mpx", "sparsecover", "netdecomp":
			p = Params{"lambda": "0.05"}
		case "blackbox":
			// The k-th power-graph materialization is one uncancellable
			// block; size the instance so the cancellable phases dominate.
			graphFor = gen.RandomRegular(4000, 4, xrand.New(9))
			p = Params{"eps": "0.25"}
		case "changli", "weighted":
			p = Params{"eps": "0.1"}
		}
		if err, _ := cancelMidRun(t, graphFor, name, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if _, err := Run(context.Background(), name, small, quickParams(t, name)); err != nil {
			t.Fatalf("%s: post-cancel run failed: %v", name, err)
		}
	}
}
