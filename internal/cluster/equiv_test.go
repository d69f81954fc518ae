package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// newBackend spins one in-process serving node.
func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(engine.New(engine.Options{}), server.Options{}))
	t.Cleanup(ts.Close)
	return ts
}

// normalize re-encodes a wire result with wall time zeroed — the
// equivalence currency, as in the server-level suite.
func normalize(t *testing.T, r *server.Result) []byte {
	t.Helper()
	cp := *r
	cp.ElapsedNS = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestClusterEquivalence is the tentpole pin: a 3-node cluster behind a
// router returns bit-identical results — snapshot stamps included — to a
// single reference server replaying the same op stream, across mutations,
// queries, batches, a compaction, and a node killed and rejoined mid-run.
func TestClusterEquivalence(t *testing.T) {
	const (
		family = "gnp"
		n      = 110
		seed   = 7
	)
	ctx := context.Background()

	backends := make([]*httptest.Server, 3)
	for i := range backends {
		backends[i] = newBackend(t)
	}
	rt, err := New(Options{
		Nodes:    []string{backends[0].URL, backends[1].URL, backends[2].URL},
		Replicas: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)
	cl := server.NewClient(rts.URL, rts.Client())

	ref := newBackend(t)
	rc := server.NewClient(ref.URL, ref.Client())

	clInfo, err := cl.Generate(ctx, family, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	refInfo, err := rc.Generate(ctx, family, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if clInfo.Fingerprint != refInfo.Fingerprint {
		t.Fatalf("fingerprints diverge at creation: %s vs %s", clInfo.Fingerprint, refInfo.Fingerprint)
	}

	// checkState compares the topology truth the two sides report; replica
	// bookkeeping counters (adds on this copy, etc.) legitimately differ
	// after a resync, the graph itself never may.
	checkState := func(t *testing.T) {
		t.Helper()
		ci, err := cl.GraphInfo(ctx, clInfo.ID)
		if err != nil {
			t.Fatalf("cluster info: %v", err)
		}
		ri, err := rc.GraphInfo(ctx, refInfo.ID)
		if err != nil {
			t.Fatalf("reference info: %v", err)
		}
		if ci.Fingerprint != ri.Fingerprint || ci.Epoch != ri.Epoch || ci.M != ri.M || ci.N != ri.N {
			t.Fatalf("state diverged:\ncluster   fp=%s epoch=%d m=%d n=%d\nreference fp=%s epoch=%d m=%d n=%d",
				ci.Fingerprint, ci.Epoch, ci.M, ci.N, ri.Fingerprint, ri.Epoch, ri.M, ri.N)
		}
	}

	checkRun := func(t *testing.T, algo string, params map[string]string) {
		t.Helper()
		got, err := cl.Run(ctx, clInfo.ID, server.RunRequest{Algo: algo, Params: params})
		if err != nil {
			t.Fatalf("cluster run %s: %v", algo, err)
		}
		want, err := rc.Run(ctx, refInfo.ID, server.RunRequest{Algo: algo, Params: params})
		if err != nil {
			t.Fatalf("reference run %s: %v", algo, err)
		}
		if !bytes.Equal(normalize(t, got), normalize(t, want)) {
			t.Fatalf("%s results differ:\ncluster:   %s\nreference: %s",
				algo, normalize(t, got), normalize(t, want))
		}
		if got.Snapshot == "" || got.Snapshot != want.Snapshot {
			t.Fatalf("%s snapshot stamps differ: %q vs %q", algo, got.Snapshot, want.Snapshot)
		}
	}

	checkQuery := func(t *testing.T, qr server.QueryRequest) {
		t.Helper()
		got, err := cl.Query(ctx, clInfo.ID, qr)
		if err != nil {
			t.Fatalf("cluster query: %v", err)
		}
		want, err := rc.Query(ctx, refInfo.ID, qr)
		if err != nil {
			t.Fatalf("reference query: %v", err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("query results differ:\ncluster:   %s\nreference: %s", gb, wb)
		}
	}

	mutate := func(t *testing.T, add bool, u, v int) {
		t.Helper()
		var got, want *server.MutateResponse
		var err error
		if add {
			got, err = cl.AddEdge(ctx, clInfo.ID, u, v)
		} else {
			got, err = cl.DeleteEdge(ctx, clInfo.ID, u, v)
		}
		if err != nil {
			t.Fatalf("cluster mutate(%v,%d,%d): %v", add, u, v, err)
		}
		if add {
			want, err = rc.AddEdge(ctx, refInfo.ID, u, v)
		} else {
			want, err = rc.DeleteEdge(ctx, refInfo.ID, u, v)
		}
		if err != nil {
			t.Fatalf("reference mutate(%v,%d,%d): %v", add, u, v, err)
		}
		if got.Applied != want.Applied || got.Epoch != want.Epoch || got.Fingerprint != want.Fingerprint || got.M != want.M {
			t.Fatalf("mutate(%v,%d,%d) responses differ: %+v vs %+v", add, u, v, got, want)
		}
	}

	// Rotate reads across all three members: every member must produce the
	// same bytes, not just whichever answered first.
	t.Run("initial", func(t *testing.T) {
		for range 3 {
			checkRun(t, "changli", map[string]string{"seed": "2"})
		}
		checkRun(t, "sparsecover", map[string]string{"seed": "2"})
		checkQuery(t, server.QueryRequest{Op: "cluster", Vertices: []int32{0, 5, 44, 71}, Eps: 0.3, Seed: 4})
		checkQuery(t, server.QueryRequest{Op: "ball", Vertices: []int32{3, 60}, Radius: 2})
		checkState(t)
	})

	t.Run("after-mutations", func(t *testing.T) {
		mutate(t, true, 0, 13)
		mutate(t, true, 1, 44)
		mutate(t, true, 2, 71)
		mutate(t, false, 0, 13)
		mutate(t, true, 1, 44) // no-op: already present, must not consume an epoch
		for range 3 {
			checkRun(t, "changli", map[string]string{"seed": "2"})
		}
		checkQuery(t, server.QueryRequest{Op: "ball", Vertices: []int32{1, 44}, Radius: 2})
		checkState(t)
	})

	// Kill the acting owner mid-run: mutations must fail over to the next
	// member, reads must keep serving, and the op streams must stay in
	// lockstep throughout.
	var killed int
	t.Run("owner-killed", func(t *testing.T) {
		rg, ok := rt.graphByID(clInfo.ID)
		if !ok {
			t.Fatal("routed graph vanished")
		}
		rg.mu.Lock()
		killed = rg.mem[0]
		rg.mu.Unlock()
		backends[killed].CloseClientConnections()
		backends[killed].Close()

		mutate(t, true, 5, 99)
		mutate(t, false, 1, 44)
		if rt.m.failovers.Load() == 0 {
			t.Fatal("killing the owner should have recorded a mutation failover")
		}
		for range 2 {
			checkRun(t, "changli", map[string]string{"seed": "2"})
		}
		checkState(t)
		if rt.nodes[killed].isUp() {
			t.Fatal("killed node still marked up")
		}
	})

	t.Run("rejoin", func(t *testing.T) {
		fresh := newBackend(t)
		if err := rt.Rejoin(ctx, killed, fresh.URL); err != nil {
			t.Fatalf("rejoin: %v", err)
		}
		if rt.m.resyncs.Load() == 0 {
			t.Fatal("rejoin should have rebuilt the member from a checkpoint")
		}
		// The rejoined member serves reads again; all three rotations must
		// agree with the reference.
		mutate(t, true, 7, 31)
		for range 3 {
			checkRun(t, "changli", map[string]string{"seed": "2"})
		}
		checkQuery(t, server.QueryRequest{Op: "cluster", Vertices: []int32{7, 31}, Eps: 0.3, Seed: 4})
		checkState(t)

		// Every member copy must hold the identical chain state.
		rg, _ := rt.graphByID(clInfo.ID)
		ri, err := rc.GraphInfo(ctx, refInfo.ID)
		if err != nil {
			t.Fatal(err)
		}
		rg.mu.Lock()
		defer rg.mu.Unlock()
		for _, i := range rg.mem {
			st := rg.rep[i]
			if !st.ok {
				t.Fatalf("member %d out of sync after rejoin", i)
			}
			info, err := rt.nodes[i].client().GraphInfo(ctx, st.remoteID)
			if err != nil {
				t.Fatalf("member %d info: %v", i, err)
			}
			if info.Fingerprint != ri.Fingerprint || info.Epoch != ri.Epoch {
				t.Fatalf("member %d diverged: fp=%s epoch=%d, want fp=%s epoch=%d",
					i, info.Fingerprint, info.Epoch, ri.Fingerprint, ri.Epoch)
			}
		}
	})

	t.Run("after-compact", func(t *testing.T) {
		got, err := cl.Compact(ctx, clInfo.ID)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rc.Compact(ctx, refInfo.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint != want.Fingerprint || got.Epoch != want.Epoch || got.M != want.M {
			t.Fatalf("compact responses differ: %+v vs %+v", got, want)
		}
		for range 3 {
			checkRun(t, "changli", map[string]string{"seed": "2"})
		}
		checkState(t)
	})

	t.Run("batch", func(t *testing.T) {
		reqs := []server.RunRequest{
			{Algo: "changli", Params: map[string]string{"seed": "2"}},
			{Algo: "sparsecover", Params: map[string]string{"seed": "2"}},
		}
		got, err := cl.Batch(ctx, clInfo.ID, reqs)
		if err != nil {
			t.Fatalf("cluster batch: %v", err)
		}
		want, err := rc.Batch(ctx, refInfo.ID, reqs)
		if err != nil {
			t.Fatalf("reference batch: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("batch line counts differ: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Error != "" || want[i].Error != "" {
				t.Fatalf("batch line %d errored: %q vs %q", i, got[i].Error, want[i].Error)
			}
			if !bytes.Equal(normalize(t, got[i].Result), normalize(t, want[i].Result)) {
				t.Fatalf("batch line %d differs", i)
			}
		}
	})
}

// fakeBackend builds a Router over stub HTTP handlers, with one graph
// pre-routed across all of them — the harness for hedging/failover tests
// that need precise control of backend behavior. hedgeAfter is the
// router's hedge delay; tests that must see the first member's answer
// pass a negative delay, which disables hedging.
func fakeBackend(t *testing.T, hedgeAfter time.Duration, handlers ...http.HandlerFunc) (*Router, []int) {
	t.Helper()
	urls := make([]string, len(handlers))
	for i, h := range handlers {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	rt, err := New(Options{Nodes: urls, Replicas: len(urls), HedgeAfter: hedgeAfter})
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]int, len(urls))
	rg := &routedGraph{id: "g1", rep: make(map[int]*replicaState)}
	for i := range urls {
		mem[i] = i
		rg.rep[i] = &replicaState{remoteID: fmt.Sprintf("b%d", i), ok: true}
	}
	rg.mem = mem
	rt.graphs["g1"] = rg
	return rt, mem
}

func postRun(t *testing.T, rt *Router) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/graphs/g1/run", bytes.NewReader([]byte(`{"algo":"x"}`)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec
}

func TestHedgedReadBeatsSlowReplica(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	rt, _ := fakeBackend(t, 5*time.Millisecond,
		func(w http.ResponseWriter, r *http.Request) { <-release; fmt.Fprint(w, `{"who":"slow"}`) },
		func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{"who":"fast"}`) },
	)
	rec := postRun(t, rt)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Body.String(); got != `{"who":"fast"}` {
		t.Fatalf("hedge should have won with the fast replica, got %s", got)
	}
	if rt.m.hedged.Load() != 1 || rt.m.hedgeWins.Load() != 1 {
		t.Fatalf("hedged=%d hedgeWins=%d, want 1/1", rt.m.hedged.Load(), rt.m.hedgeWins.Load())
	}
	// Losing the hedge race is not a health signal: the slow replica's
	// request was cancelled by the router itself, and marking it down
	// here would poison a healthy node for the whole probation window.
	time.Sleep(20 * time.Millisecond) // let the cancelled loser finish its bookkeeping
	if !rt.nodes[0].isUp() {
		t.Fatal("slow replica was marked down after losing a hedge race")
	}
}

func TestReadFailsOverOn5xx(t *testing.T) {
	// No hedging: a hedged copy to the backup could answer before the
	// first member's 500 arrives, and the 500 would never count.
	rt, _ := fakeBackend(t, -1,
		func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusInternalServerError) },
		func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{"who":"backup"}`) },
	)
	rec := postRun(t, rt)
	if rec.Code != http.StatusOK || rec.Body.String() != `{"who":"backup"}` {
		t.Fatalf("want fallback answer, got %d: %s", rec.Code, rec.Body)
	}
	if rt.m.fallbacks.Load() != 1 {
		t.Fatalf("fallbacks=%d, want 1", rt.m.fallbacks.Load())
	}
}

func TestSemantic4xxIsNotFailedOver(t *testing.T) {
	// No hedging, for the same reason: a slow 422 must still be relayed.
	rt, _ := fakeBackend(t, -1,
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusUnprocessableEntity)
			fmt.Fprint(w, `{"error":"no"}`)
		},
		func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{"who":"wrong"}`) },
	)
	rec := postRun(t, rt)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("a semantic 422 must be relayed, got %d: %s", rec.Code, rec.Body)
	}
	if rt.m.fallbacks.Load() != 0 {
		t.Fatalf("fallbacks=%d, want 0 — 422 is an answer, not a failure", rt.m.fallbacks.Load())
	}
}

func TestRendezvousOrder(t *testing.T) {
	key := func(b byte) (k [32]byte) {
		for i := range k {
			k[i] = b ^ byte(i*37)
		}
		return
	}
	a := rendezvousOrder(key(1), 5)
	if got := rendezvousOrder(key(1), 5); fmt.Sprint(got) != fmt.Sprint(a) {
		t.Fatalf("rendezvous order not deterministic: %v vs %v", got, a)
	}
	// Spread: over many keys every node should win sometimes.
	first := make(map[int]int)
	for b := range 64 {
		first[rendezvousOrder(key(byte(b)), 5)[0]]++
	}
	for i := range 5 {
		if first[i] == 0 {
			t.Fatalf("node %d never ranked first over 64 keys: %v", i, first)
		}
	}
	// Stability: dropping the last node must not reshuffle the survivors'
	// relative order (the consistent-hash property).
	for b := range 16 {
		full := rendezvousOrder(key(byte(b)), 5)
		sub := rendezvousOrder(key(byte(b)), 4)
		var filtered []int
		for _, i := range full {
			if i < 4 {
				filtered = append(filtered, i)
			}
		}
		if fmt.Sprint(filtered) != fmt.Sprint(sub) {
			t.Fatalf("key %d: removing node 4 reshuffled survivors: %v vs %v", b, filtered, sub)
		}
	}
}
