package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graphio"
)

// newTestServer spins an httptest server over a fresh engine.
func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	s := New(engine.New(engine.Options{}), opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL, ts.Client())
}

// --- blocking test-only registry spec --------------------------------------
//
// servertest-block handshakes with tests through per-id gates: a request
// with id=X signals gateFor("X").started and then waits for release (or its
// context). Requests whose id has no registered gate return immediately, so
// stray invocations (fuzzing) cannot hang.

var (
	blockOnce  sync.Once
	blockGates sync.Map // id -> *blockGate
)

type blockGate struct {
	startOnce sync.Once
	started   chan struct{}
	release   chan struct{}
}

func gateFor(id string) *blockGate {
	g := &blockGate{started: make(chan struct{}), release: make(chan struct{})}
	blockGates.Store(id, g)
	return g
}

func registerBlockingSpec() {
	blockOnce.Do(func() {
		algo.Register(&algo.Spec{
			Name:    "servertest-block",
			Summary: "test-only: blocks until released or cancelled",
			Caps:    algo.Capabilities{Kind: algo.KindDecomposition},
			Defs: []algo.ParamDef{
				{Key: "id", Kind: algo.String, Default: "", Doc: "gate id"},
			},
			Run: func(ctx context.Context, g *graph.Graph, p algo.Params) (*algo.Result, error) {
				if v, ok := blockGates.Load(p["id"]); ok {
					gate := v.(*blockGate)
					gate.startOnce.Do(func() { close(gate.started) })
					select {
					case <-gate.release:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				return &algo.Result{ClusterOf: make([]int32, g.N()), NumClusters: 1}, nil
			},
		})
	})
}

func TestGraphLifecycle(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()

	info, err := c.Generate(ctx, "cycle", 64, 1)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if info.ID != "g1" || info.N != 64 || info.M != 64 {
		t.Fatalf("unexpected info %+v", info)
	}
	want := graphio.FingerprintOf(gen.Cycle(64)).String()
	if info.Fingerprint != want {
		t.Fatalf("fingerprint %s, want %s", info.Fingerprint, want)
	}

	list, err := c.Graphs(ctx)
	if err != nil || len(list) != 1 || list[0].ID != "g1" {
		t.Fatalf("list: %v %+v", err, list)
	}
	got, err := c.GraphInfo(ctx, "g1")
	if err != nil || got.Fingerprint != want {
		t.Fatalf("info: %v %+v", err, got)
	}
	if err := c.DeleteGraph(ctx, "g1"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.GraphInfo(ctx, "g1"); !IsStatus(err, http.StatusNotFound) {
		t.Fatalf("want 404 after delete, got %v", err)
	}
	if err := c.DeleteGraph(ctx, "g1"); !IsStatus(err, http.StatusNotFound) {
		t.Fatalf("double delete: want 404, got %v", err)
	}
	if _, err := c.Generate(ctx, "mobius", 64, 1); !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("unknown family: want 400, got %v", err)
	}
}

func TestUploadAllFormats(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	g := gen.Grid(9, 9)
	want := graphio.FingerprintOf(g).String()

	for _, tc := range []struct {
		format string
		f      graphio.Format
		gz     bool
	}{
		{"el", graphio.EdgeList, false},
		{"edges", graphio.EdgeList, false},
		{"dimacs", graphio.DIMACS, false},
		{"metis", graphio.METIS, false},
		{"el.gz", graphio.EdgeList, true},
		{"metis.gz", graphio.METIS, true},
	} {
		var buf bytes.Buffer
		if tc.gz {
			zw := gzip.NewWriter(&buf)
			if err := graphio.Write(zw, tc.f, g); err != nil {
				t.Fatal(err)
			}
			zw.Close()
		} else if err := graphio.Write(&buf, tc.f, g); err != nil {
			t.Fatal(err)
		}
		info, err := c.Upload(ctx, tc.format, &buf)
		if err != nil {
			t.Fatalf("%s: upload: %v", tc.format, err)
		}
		if info.Fingerprint != want {
			t.Fatalf("%s: fingerprint %s, want %s", tc.format, info.Fingerprint, want)
		}
	}

	// Malformed bytes and unknown formats are 400s.
	if _, err := c.Upload(ctx, "el", strings.NewReader("not a graph\n")); !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("malformed upload: want 400, got %v", err)
	}
	if _, err := c.Upload(ctx, "xlsx", strings.NewReader("")); !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("unknown format: want 400, got %v", err)
	}
	resp, err := http.Post(c.base+"/v1/graphs", "application/octet-stream", strings.NewReader("1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing ?format=: want 400, got %d", resp.StatusCode)
	}
}

func TestRunEndpoint(t *testing.T) {
	srv, c := newTestServer(t, Options{})
	ctx := context.Background()
	info, err := c.Generate(ctx, "gnp", 100, 3)
	if err != nil {
		t.Fatal(err)
	}

	res, err := c.Run(ctx, info.ID, RunRequest{Algo: "changli", Params: map[string]string{"eps": "0.3", "seed": "2"}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Algorithm != "changli" || len(res.ClusterOf) != 100 || res.Snapshot != info.Fingerprint {
		t.Fatalf("unexpected result %q %d %q", res.Algorithm, len(res.ClusterOf), res.Snapshot)
	}
	// The q-form parameter bag and an alias hit the same cache slot.
	res2, err := c.Run(ctx, info.ID, RunRequest{Algo: "chang-li", Q: "eps=0.30 seed=2"})
	if err != nil {
		t.Fatalf("run q-form: %v", err)
	}
	if res2.Key != res.Key {
		t.Fatalf("cache keys differ: %q vs %q", res2.Key, res.Key)
	}
	if st := srv.Engine().Stats(); st.Hits == 0 {
		t.Fatalf("expected a cache hit, stats %+v", st)
	}

	for name, rq := range map[string]RunRequest{
		"unknown-algo": {Algo: "quantum"},
		"missing-algo": {},
		"unknown-key":  {Algo: "changli", Params: map[string]string{"epz": "0.3"}},
		"bad-value":    {Algo: "changli", Params: map[string]string{"eps": "zero"}},
		"empty-value":  {Algo: "changli", Q: "eps="},
		"dup-key":      {Algo: "changli", Params: map[string]string{"eps": "0.3"}, Q: "eps=0.4"},
		"neg-timeout":  {Algo: "changli", TimeoutMS: -5},
	} {
		if _, err := c.Run(ctx, info.ID, rq); !IsStatus(err, http.StatusBadRequest) {
			t.Errorf("%s: want 400, got %v", name, err)
		}
	}
	if _, err := c.Run(ctx, "g99", RunRequest{Algo: "changli"}); !IsStatus(err, http.StatusNotFound) {
		t.Fatalf("missing graph: want 404, got %v", err)
	}
	// Semantically invalid parameter values the decoder cannot see are 422.
	if _, err := c.Run(ctx, info.ID, RunRequest{Algo: "solve", Params: map[string]string{"problem": "nope"}}); !IsStatus(err, http.StatusUnprocessableEntity) {
		t.Fatalf("bad problem: want 422, got %v", err)
	}
}

// TestRunRejectsOutOfRangeParams: parameter values an algorithm is not
// defined for (ε outside (0, 1], λ not finite and > 0) are 422 and cache
// nothing, and a valid request right after them computes as usual.
func TestRunRejectsOutOfRangeParams(t *testing.T) {
	srv, c := newTestServer(t, Options{})
	ctx := context.Background()
	info, err := c.Generate(ctx, "grid", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rq := range []RunRequest{
		{Algo: "changli", Q: "eps=NaN"},
		{Algo: "en", Q: "lambda=0"},
	} {
		if _, err := c.Run(ctx, info.ID, rq); !IsStatus(err, http.StatusUnprocessableEntity) {
			t.Errorf("%s %s: want 422, got %v", rq.Algo, rq.Q, err)
		}
	}
	if n := srv.Engine().Stats().EntriesTotal(); n != 0 {
		t.Fatalf("rejected requests left %d cache entries", n)
	}
	res, err := c.Run(ctx, info.ID, RunRequest{Algo: "en", Q: "lambda=0.3"})
	if err != nil {
		t.Fatalf("valid run after rejections: %v", err)
	}
	if len(res.ClusterOf) != 400 || res.NumClusters == 0 {
		t.Fatalf("valid run: %d vertices, %d clusters", len(res.ClusterOf), res.NumClusters)
	}
	if n := srv.Engine().Stats().EntriesTotal(); n != 1 {
		t.Fatalf("valid run: %d cache entries, want 1", n)
	}
}

func TestRunRejectsMalformedJSON(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	info, err := c.Generate(ctx, "cycle", 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"not-json":      "run changli please",
		"trailing":      `{"algo":"changli"} extra`,
		"unknown-field": `{"algo":"changli","bogus":1}`,
		"wrong-type":    `{"algo":42}`,
		"empty":         "",
	} {
		resp, err := http.Post(c.base+"/v1/graphs/"+info.ID+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d", name, resp.StatusCode)
		}
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	info, err := c.Generate(ctx, "grid", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	qres, err := c.Query(ctx, info.ID, QueryRequest{Op: "cluster", Vertices: []int32{0, 5, 17}})
	if err != nil {
		t.Fatalf("cluster query: %v", err)
	}
	if len(qres.Clusters) != 3 || qres.Snapshot != info.Fingerprint {
		t.Fatalf("unexpected cluster response %+v", qres)
	}
	bres, err := c.Query(ctx, info.ID, QueryRequest{Op: "ball", Vertices: []int32{17}, Radius: 1})
	if err != nil {
		t.Fatalf("ball query: %v", err)
	}
	// Vertex 17 of the 10x10 grid is interior: itself plus 4 neighbors.
	if len(bres.Balls) != 1 || len(bres.Balls[0]) != 5 {
		t.Fatalf("unexpected ball %v", bres.Balls)
	}
	for name, qr := range map[string]QueryRequest{
		"no-vertices": {Op: "cluster"},
		"bad-op":      {Op: "frob", Vertices: []int32{1}},
		"neg-radius":  {Op: "ball", Vertices: []int32{1}, Radius: -1},
	} {
		if _, err := c.Query(ctx, info.ID, qr); !IsStatus(err, http.StatusBadRequest) {
			t.Errorf("%s: want 400, got %v", name, err)
		}
	}
	if _, err := c.Query(ctx, info.ID, QueryRequest{Op: "ball", Vertices: []int32{-4}}); !IsStatus(err, http.StatusUnprocessableEntity) {
		t.Errorf("out-of-range vertex: want 422, got %v", err)
	}
}

// TestClusterParamsKey pins the cache key of a cluster query's parameters,
// defaults included, so /query op=cluster and /run changli under the same
// parameters share one cache slot.
func TestClusterParamsKey(t *testing.T) {
	spec, _ := algo.Get("changli")
	for _, c := range []struct {
		q    QueryRequest
		want string
	}{
		{QueryRequest{}, "changli|eps=0.3|ntilde=0|seed=1|scale=0.05|skip2=false|repair=false"},
		{QueryRequest{Eps: 0.25, Scale: 0.002, Seed: 7, Skip2: true}, "changli|eps=0.25|ntilde=0|seed=7|scale=0.002|skip2=true|repair=false"},
	} {
		if got, err := spec.CacheKey(c.q.ClusterParams()); err != nil || got != c.want {
			t.Fatalf("%+v: key %q (err %v), want %q", c.q, got, err, c.want)
		}
	}
}

func TestMutationEndpoints(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	info, err := c.Generate(ctx, "cycle", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID

	mres, err := c.AddEdge(ctx, id, 0, 25)
	if err != nil || !mres.Applied || mres.Epoch != 1 || mres.M != 51 {
		t.Fatalf("addedge: %v %+v", err, mres)
	}
	if mres.Fingerprint == info.Fingerprint {
		t.Fatal("mutation did not change the fingerprint")
	}
	if dup, err := c.AddEdge(ctx, id, 25, 0); err != nil || dup.Applied || dup.Epoch != 1 {
		t.Fatalf("duplicate addedge: %v %+v", err, dup)
	}
	if _, err := c.AddEdge(ctx, id, 3, 3); !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("self-loop: want 400, got %v", err)
	}
	if _, err := c.AddEdge(ctx, id, 3, 5000); !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("out of range: want 400, got %v", err)
	}
	if del, err := c.DeleteEdge(ctx, id, 0, 1); err != nil || !del.Applied || del.M != 50 {
		t.Fatalf("deledge: %v %+v", err, del)
	}
	if gone, err := c.DeleteEdge(ctx, id, 0, 1); err != nil || gone.Applied {
		t.Fatalf("absent deledge: %v %+v", err, gone)
	}

	// Compact folds the overlay and the graph info reflects it.
	cres, err := c.Compact(ctx, id)
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	after, err := c.GraphInfo(ctx, id)
	if err != nil || after.PendingDeltas != 0 || after.Compactions != 1 || after.M != 50 {
		t.Fatalf("post-compact info: %v %+v", err, after)
	}
	if cres.Fingerprint != after.Fingerprint {
		t.Fatalf("compact response fingerprint %s != info %s", cres.Fingerprint, after.Fingerprint)
	}
	// A run after mutation is stamped with the mutated snapshot.
	res, err := c.Run(ctx, id, RunRequest{Algo: "changli"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot != after.Fingerprint {
		t.Fatalf("run snapshot %s, want %s", res.Snapshot, after.Fingerprint)
	}
}

func TestBatchStream(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	info, err := c.Generate(ctx, "cycle", 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := c.Batch(ctx, info.ID, []RunRequest{
		{Algo: "changli", Params: map[string]string{"seed": "1"}},
		{Algo: "bogus"},
		{Algo: "sparsecover", Params: map[string]string{"seed": "2"}},
		{Algo: "changli", Params: map[string]string{"eps": "broken"}},
		{Algo: "changli", Params: map[string]string{"seed": "1"}},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d: %+v", len(lines), lines)
	}
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("line %d has index %d", i, l.Index)
		}
	}
	if lines[0].Result == nil || lines[2].Result == nil || lines[4].Result == nil {
		t.Fatalf("expected results on lines 0/2/4: %+v", lines)
	}
	if lines[1].Status != http.StatusBadRequest || lines[3].Status != http.StatusBadRequest {
		t.Fatalf("expected per-line 400s: %+v", lines)
	}
	// Identical requests in one stream share the cache.
	if lines[0].Result.Key != lines[4].Result.Key {
		t.Fatal("batch lines 0 and 4 should share a cache key")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, c := newTestServer(t, Options{})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if _, err := c.Generate(ctx, "cycle", 40, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, "g1", RunRequest{Algo: "changli"}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		"repro_engine_hits_total", "repro_engine_misses_total 1", "repro_engine_cancellations_total",
		"repro_engine_shard_entries{shard=\"0\"}", "repro_server_inflight_requests",
		"repro_server_admitted_total", "repro_server_draining 0",
		"repro_graph_vertices{graph=\"g1\"} 40", "repro_graph_epoch{graph=\"g1\"} 0",
		"# TYPE repro_engine_hits_total counter", "# HELP repro_http_request_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestAlgorithmsCatalog(t *testing.T) {
	_, c := newTestServer(t, Options{})
	var out []AlgorithmInfo
	if err := c.do(context.Background(), http.MethodGet, "/v1/algorithms", nil, &out); err != nil {
		t.Fatalf("catalog: %v", err)
	}
	found := false
	for _, a := range out {
		if a.Name == "changli" {
			found = true
			if a.Kind != "decomposition" || len(a.Params) == 0 {
				t.Fatalf("changli entry %+v", a)
			}
		}
	}
	if !found {
		t.Fatal("catalog missing changli")
	}
}

func TestAdmissionGateSheds(t *testing.T) {
	registerBlockingSpec()
	srv, c := newTestServer(t, Options{MaxInflight: 1})
	ctx := context.Background()
	info, err := c.Generate(ctx, "cycle", 32, 1)
	if err != nil {
		t.Fatal(err) // generate fits: the gate admits one request at a time
	}
	gate := gateFor("admission")
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, info.ID, RunRequest{Algo: "servertest-block", Params: map[string]string{"id": "admission"}})
		done <- err
	}()
	<-gate.started
	// The single admission slot is occupied: everything /v1 sheds with 503,
	// but health and metrics stay observable.
	if _, err := c.GraphInfo(ctx, info.ID); !IsStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("want 503 while saturated, got %v", err)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz under overload: %v", err)
	}
	if _, err := c.Metrics(ctx); err != nil {
		t.Fatalf("metrics under overload: %v", err)
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("blocked run: %v", err)
	}
	if shed := srv.shed.Load(); shed == 0 {
		t.Fatal("shed counter did not move")
	}
	// Capacity is released: the next request is admitted again.
	if _, err := c.GraphInfo(ctx, info.ID); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestDrainFinishesInflightAndRejectsNew(t *testing.T) {
	registerBlockingSpec()
	srv, c := newTestServer(t, Options{})
	ctx := context.Background()
	info, err := c.Generate(ctx, "cycle", 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	gate := gateFor("drain")
	runDone := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, info.ID, RunRequest{Algo: "servertest-block", Params: map[string]string{"id": "drain"}})
		runDone <- err
	}()
	<-gate.started

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(ctx) }()

	// Drain must not complete while the request is in flight.
	select {
	case err := <-drainDone:
		t.Fatalf("drain returned with a request in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	// New work is rejected; health reports draining.
	if _, err := c.Run(ctx, info.ID, RunRequest{Algo: "changli"}); !IsStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("want 503 while draining, got %v", err)
	}
	if err := c.Healthz(ctx); !IsStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("healthz should report draining, got %v", err)
	}
	// The in-flight request still finishes cleanly.
	close(gate.release)
	if err := <-runDone; err != nil {
		t.Fatalf("in-flight run during drain: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain is idempotent and instant once idle.
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestDrainTimeout(t *testing.T) {
	registerBlockingSpec()
	srv, c := newTestServer(t, Options{})
	ctx := context.Background()
	info, err := c.Generate(ctx, "cycle", 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	gate := gateFor("drain-timeout")
	runDone := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, info.ID, RunRequest{Algo: "servertest-block", Params: map[string]string{"id": "drain-timeout"}})
		runDone <- err
	}()
	<-gate.started
	dctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if err := srv.Drain(dctx); err == nil || !strings.Contains(err.Error(), "1 requests in flight") {
		t.Fatalf("want drain timeout naming the stragglers, got %v", err)
	}
	close(gate.release)
	<-runDone
}

func TestDeadlineCancelsCompute(t *testing.T) {
	registerBlockingSpec()
	srv, c := newTestServer(t, Options{})
	ctx := context.Background()
	info, err := c.Generate(ctx, "cycle", 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	gateFor("deadline") // registered but never released: only ctx can end it
	before := srv.Engine().Stats().Cancellations
	_, err = c.Run(ctx, info.ID, RunRequest{
		Algo: "servertest-block", Params: map[string]string{"id": "deadline"}, TimeoutMS: 40,
	})
	if !IsStatus(err, http.StatusGatewayTimeout) {
		t.Fatalf("want 504, got %v", err)
	}
	if after := srv.Engine().Stats().Cancellations; after != before+1 {
		t.Fatalf("cancellations %d -> %d, want +1", before, after)
	}
	if n := srv.Engine().Stats().InflightTotal(); n != 0 {
		t.Fatalf("%d dangling inflight computations", n)
	}
}

func TestClientDisconnectCancelsCompute(t *testing.T) {
	registerBlockingSpec()
	srv, c := newTestServer(t, Options{})
	ctx := context.Background()
	info, err := c.Generate(ctx, "cycle", 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	gate := gateFor("disconnect")
	before := srv.Engine().Stats().Cancellations
	reqCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(reqCtx, info.ID, RunRequest{Algo: "servertest-block", Params: map[string]string{"id": "disconnect"}})
		done <- err
	}()
	<-gate.started
	cancel() // hang up mid-compute
	if err := <-done; err == nil {
		t.Fatal("cancelled client request succeeded")
	}
	// The server notices the disconnect through the request context and the
	// engine counts the cancellation; poll briefly (teardown is async).
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := srv.Engine().Stats()
		if st.Cancellations > before && st.InflightTotal() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never observed the disconnect: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMaxBodyBytes(t *testing.T) {
	_, c := newTestServer(t, Options{MaxBodyBytes: 256})
	big := fmt.Sprintf(`{"algo":"changli","q":"%s"}`, strings.Repeat("x", 1024))
	resp, err := http.Post(c.base+"/v1/graphs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: want 400/413, got %d", resp.StatusCode)
	}
}

func TestGenerateVertexBound(t *testing.T) {
	_, c := newTestServer(t, Options{MaxGenerateVertices: 1000})
	ctx := context.Background()
	if _, err := c.Generate(ctx, "cycle", 5000, 1); !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("oversized generate: want 400, got %v", err)
	}
	if _, err := c.Generate(ctx, "cycle", 1000, 1); err != nil {
		t.Fatalf("in-bounds generate: %v", err)
	}
	// The default bound blocks a hostile ten-byte request for a
	// multi-gigabyte allocation without allocating anything.
	_, c2 := newTestServer(t, Options{})
	if _, err := c2.Generate(ctx, "cycle", 2_000_000_000, 1); !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("default bound: want 400, got %v", err)
	}
}

func TestGzipBombRejected(t *testing.T) {
	_, c := newTestServer(t, Options{MaxBodyBytes: 1 << 16})
	// ~4 MiB of edge-list text compresses to a few KiB: the compressed
	// body passes MaxBytesReader, so only the decompressed bound can stop
	// the expansion.
	var plain bytes.Buffer
	plain.WriteString("1000 1000000\n")
	for i := 0; i < 1_000_000; i++ {
		fmt.Fprintf(&plain, "%d %d\n", i%1000, (i+1)%1000)
	}
	var compressed bytes.Buffer
	zw := gzip.NewWriter(&compressed)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	if compressed.Len() > 1<<16 {
		t.Fatalf("test bomb not compact enough: %d compressed bytes", compressed.Len())
	}
	if _, err := c.Upload(context.Background(), "el.gz", &compressed); !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("gzip bomb: want 400, got %v", err)
	}
	// A legitimate gzip upload within the decompressed bound still works.
	var ok bytes.Buffer
	zw = gzip.NewWriter(&ok)
	if err := graphio.Write(zw, graphio.EdgeList, gen.Cycle(64)); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	if _, err := c.Upload(context.Background(), "el.gz", &ok); err != nil {
		t.Fatalf("legitimate gzip upload: %v", err)
	}
}
