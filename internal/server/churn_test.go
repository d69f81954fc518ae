package server

import (
	"context"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/xrand"
)

// churnClient drives one closed-loop HTTP client mixing algorithm runs,
// point queries, and store mutations against graph id; every error other
// than an expected shed/timeout is fatal to the test.
func churnClient(t *testing.T, c *Client, id string, n, ops int, rng *xrand.RNG) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < ops; i++ {
		switch roll := rng.Intn(20); {
		case roll < 3: // mutate: insert
			if _, err := c.AddEdge(ctx, id, rng.Intn(n), rng.Intn(n)); err != nil && !IsStatus(err, 400) {
				t.Errorf("addedge: %v", err)
				return
			}
		case roll < 5: // mutate: delete (random pair; usually a no-op)
			if _, err := c.DeleteEdge(ctx, id, rng.Intn(n), rng.Intn(n)); err != nil && !IsStatus(err, 400) {
				t.Errorf("deledge: %v", err)
				return
			}
		case roll < 6: // compact
			if _, err := c.Compact(ctx, id); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		case roll < 11: // decomposition run over a tiny seed space
			rq := RunRequest{Algo: "changli", Params: map[string]string{"seed": strconv.Itoa(rng.Intn(2))}}
			if _, err := c.Run(ctx, id, rq); err != nil {
				t.Errorf("run: %v", err)
				return
			}
		case roll < 13: // a second family keeps several key shapes in play
			rq := RunRequest{Algo: "sparsecover", Params: map[string]string{"seed": strconv.Itoa(rng.Intn(2))}}
			if _, err := c.Run(ctx, id, rq); err != nil {
				t.Errorf("run cover: %v", err)
				return
			}
		case roll < 17: // cluster point query
			qr := QueryRequest{Op: "cluster", Vertices: []int32{int32(rng.Intn(n))}, Seed: uint64(1 + rng.Intn(2))}
			if _, err := c.Query(ctx, id, qr); err != nil {
				t.Errorf("cluster query: %v", err)
				return
			}
		default: // ball point query
			qr := QueryRequest{Op: "ball", Vertices: []int32{int32(rng.Intn(n))}, Radius: 1 + rng.Intn(3)}
			if _, err := c.Query(ctx, id, qr); err != nil {
				t.Errorf("ball query: %v", err)
				return
			}
		}
	}
}

// checkQuiesced asserts the invariants the issue pins after a churn run
// drains: no dangling inflight computations anywhere, consistent store
// accounting, and a server still healthy enough to compact and serve.
func checkQuiesced(t *testing.T, srv *Server, c *Client, id string) {
	t.Helper()
	ctx := context.Background()
	est := srv.Engine().Stats()
	if n := est.InflightTotal(); n != 0 {
		t.Fatalf("%d dangling inflight entries after drain: %+v", n, est.Shards)
	}
	if inflight, _ := srv.gate.stats(); inflight != 0 {
		t.Fatalf("%d requests still admitted after drain", inflight)
	}
	if est.Misses != est.Computations {
		// Retries after cancelled initiators can push Computations past
		// Misses; with no cancellations in this workload they must agree.
		if est.Cancellations == 0 {
			t.Fatalf("misses %d != computations %d with zero cancellations", est.Misses, est.Computations)
		}
	}
	info, err := c.GraphInfo(ctx, id)
	if err != nil {
		t.Fatalf("post-drain info: %v", err)
	}
	if info.Epoch != info.Adds+info.Dels {
		t.Fatalf("epoch %d != adds %d + dels %d", info.Epoch, info.Adds, info.Dels)
	}
	// Compact revalidates the whole overlay against the CSR invariants (it
	// panics on drift), so a clean compact is a deep consistency check.
	if _, err := c.Compact(ctx, id); err != nil {
		t.Fatalf("post-drain compact: %v", err)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("post-drain healthz: %v", err)
	}
}

// TestHTTPConcurrentChurn is the race-suite version of the churn workload:
// 8 HTTP clients mixing queries, addedge/deledge, and compact against one
// store-backed graph, then a full quiescence check.
func TestHTTPConcurrentChurn(t *testing.T) {
	const (
		clients = 8
		ops     = 25
		n       = 150
	)
	srv, c := newTestServer(t, Options{})
	info, err := c.Generate(context.Background(), "gnp", n, 11)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := xrand.Stream(29, cl, 0xc4a2)
			churnClient(t, c, info.ID, n, ops, &rng)
		}(cl)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkQuiesced(t, srv, c, info.ID)
}

// TestHTTPChurnSoak is the heavy loopback soak behind CI's dedicated -race
// step (skipped under -short so that step is its only run): a real TCP
// server, 8 churning clients, then a barrage of deadline-doomed requests
// that must all cancel through the engine without leaking goroutines.
func TestHTTPChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy HTTP soak; runs in the dedicated race step")
	}
	const (
		clients = 8
		ops     = 120
		n       = 220
	)
	e := engine.New(engine.Options{Capacity: 16}) // tight cache forces eviction churn
	srv := New(e, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	info, err := c.Generate(ctx, "gnp", n, 23)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := xrand.Stream(31, cl, 0x50a2)
			churnClient(t, c, info.ID, n, ops, &rng)
		}(cl)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkQuiesced(t, srv, c, info.ID)

	// Cancellation under load: requests against never-released blocking
	// gates can only end through their deadline, so every one must come
	// back 504 and count as an engine cancellation (the same code path a
	// disconnected client takes; TestClientDisconnectCancelsCompute pins
	// the disconnect side).
	registerBlockingSpec()
	const doomed = 16
	before := e.Stats().Cancellations
	var dwg sync.WaitGroup
	errs := make([]error, doomed)
	for i := 0; i < doomed; i++ {
		id := "soak-doomed-" + strconv.Itoa(i)
		gateFor(id) // registered, never released
		dwg.Add(1)
		go func(i int, id string) {
			defer dwg.Done()
			_, errs[i] = c.Run(ctx, info.ID, RunRequest{
				Algo: "servertest-block", Params: map[string]string{"id": id}, TimeoutMS: 5,
			})
		}(i, id)
	}
	dwg.Wait()
	for i, err := range errs {
		if !IsStatus(err, 504) {
			t.Fatalf("doomed run %d: want 504, got %v", i, err)
		}
	}
	if after := e.Stats().Cancellations; after < before+doomed {
		t.Fatalf("cancellations %d -> %d, want at least +%d", before, after, doomed)
	}
	if n := e.Stats().InflightTotal(); n != 0 {
		t.Fatalf("%d dangling inflight entries after cancellations", n)
	}

	// Drain and verify the goroutine count returns to the neighborhood of
	// the baseline (cancelled computations and keep-alive conns wind down).
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+8 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d vs baseline %d\n%s",
				g, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The drained server still answers observability probes with final,
	// consistent numbers.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics after drain: %v", err)
	}
	for _, want := range []string{"repro_server_draining 1", "repro_engine_inflight_computations 0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q after drain", want)
		}
	}
}
