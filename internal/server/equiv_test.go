package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/engine"
	"repro/internal/graph/gen"
	"repro/internal/store"
)

// equivParams picks one deterministic parameter set per registry algorithm:
// defaults plus a fixed seed, with the GKM horizon pinned to the experiment
// scale (paper constants dwarf test-sized graphs).
func equivParams(spec *algo.Spec) algo.Params {
	p := algo.Params{}
	if spec.Has("seed") {
		p["seed"] = "2"
	}
	if spec.Name == "gkm" {
		p["scale"] = "0.4"
	}
	return p
}

// realSpecs returns the registry without test-only entries other test files
// in this binary may have registered.
func realSpecs(t *testing.T) []*algo.Spec {
	t.Helper()
	var out []*algo.Spec
	for _, spec := range algo.All() {
		if strings.HasPrefix(spec.Name, "servertest-") || strings.HasPrefix(spec.Name, "enginetest-") {
			continue
		}
		out = append(out, spec)
	}
	if len(out) < 10 {
		t.Fatalf("registry suspiciously small: %d specs", len(out))
	}
	return out
}

// normalize re-encodes a wire result with the wall-clock field zeroed; the
// resulting bytes are the equivalence currency. Everything else — cluster
// assignments, metrics, rounds, cache key, snapshot stamp — must survive
// the HTTP round trip bit-for-bit.
func normalize(t *testing.T, r *Result) []byte {
	t.Helper()
	cp := *r
	cp.ElapsedNS = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestHTTPEquivalence pins the end-to-end contract of the serving layer:
// for every registry algorithm, the result served over HTTP is bit-identical
// (modulo wall time) to a direct Engine.Run against a separately constructed
// engine and store holding the same graph — including the Result.Snapshot
// stamp, before and after mutations, and after compaction. The same holds
// for the /query point queries.
func TestHTTPEquivalence(t *testing.T) {
	const (
		family = "gnp"
		n      = 110
		seed   = 7
	)
	srv := New(engine.New(engine.Options{}), Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	info, err := c.Generate(ctx, family, n, seed)
	if err != nil {
		t.Fatal(err)
	}

	// The direct side builds everything independently: same topology, its
	// own store, its own engine. Only the bytes may agree.
	g, err := gen.Family(family, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	directStore := store.New(g)
	directEngine := engine.New(engine.Options{})
	directHandle := directEngine.RegisterStore(directStore)
	if fp := directStore.Snapshot().Fingerprint().String(); fp != info.Fingerprint {
		t.Fatalf("fingerprints diverge before any request: %s vs %s", fp, info.Fingerprint)
	}

	check := func(t *testing.T, spec *algo.Spec, params algo.Params) {
		t.Helper()
		httpRes, err := c.Run(ctx, info.ID, RunRequest{Algo: spec.Name, Params: params})
		if err != nil {
			t.Fatalf("HTTP run: %v", err)
		}
		directRes, err := directEngine.Run(ctx, directHandle, spec.Name, params)
		if err != nil {
			t.Fatalf("direct run: %v", err)
		}
		want := normalize(t, WireResult(directRes))
		got := normalize(t, httpRes)
		if !bytes.Equal(got, want) {
			t.Fatalf("HTTP and direct results differ:\n http: %s\ndirect: %s", got, want)
		}
		if httpRes.Snapshot == "" {
			t.Fatal("store-backed result missing its snapshot stamp")
		}
		if wantFP := directStore.Snapshot().Fingerprint().String(); httpRes.Snapshot != wantFP {
			t.Fatalf("snapshot stamp %s, want %s", httpRes.Snapshot, wantFP)
		}
	}

	// checkQuery pins /query to the direct engine: op "cluster" answers
	// from Run("changli") under the request's parameters with the scale
	// default filled in, op "ball" from Balls, and both stamp the snapshot
	// their answer came from.
	checkQuery := func(t *testing.T) {
		t.Helper()
		vs := []int32{0, 13, 44, n - 1}
		cl, err := c.Query(ctx, info.ID, QueryRequest{Op: "cluster", Vertices: vs, Eps: 0.25, Seed: 3})
		if err != nil {
			t.Fatalf("HTTP cluster query: %v", err)
		}
		res, err := directEngine.Run(ctx, directHandle, "changli", algo.Params{"eps": "0.25", "scale": "0.05", "seed": "3"})
		if err != nil {
			t.Fatalf("direct run: %v", err)
		}
		want := make([]int32, len(vs))
		for i, v := range vs {
			want[i] = res.ClusterOf[v]
		}
		if !slices.Equal(cl.Clusters, want) || cl.Snapshot != res.Snapshot {
			t.Fatalf("cluster query %v @ %s, direct %v @ %s", cl.Clusters, cl.Snapshot, want, res.Snapshot)
		}
		bl, err := c.Query(ctx, info.ID, QueryRequest{Op: "ball", Vertices: vs, Radius: 2})
		if err != nil {
			t.Fatalf("HTTP ball query: %v", err)
		}
		balls, snapshot, err := directEngine.Balls(ctx, directHandle, vs, 2, 0)
		if err != nil {
			t.Fatalf("direct balls: %v", err)
		}
		if !slices.EqualFunc(bl.Balls, balls, slices.Equal) || bl.Snapshot != snapshot {
			t.Fatalf("ball query %v @ %s, direct %v @ %s", bl.Balls, bl.Snapshot, balls, snapshot)
		}
		if wantFP := directStore.Snapshot().Fingerprint().String(); snapshot != wantFP {
			t.Fatalf("query snapshot %s, want %s", snapshot, wantFP)
		}
	}

	for _, spec := range realSpecs(t) {
		t.Run(spec.Name, func(t *testing.T) { check(t, spec, equivParams(spec)) })
	}
	t.Run("query", checkQuery)

	// Mutations: the same edits through HTTP and directly must keep the two
	// sides in lockstep — incremental fingerprint chain included — and the
	// equivalence must hold against the mutated (overlay-backed) snapshot.
	t.Run("after-mutation", func(t *testing.T) {
		edits := [][2]int{{0, 13}, {1, 44}, {2, 71}}
		for _, e := range edits {
			if _, err := c.AddEdge(ctx, info.ID, e[0], e[1]); err != nil {
				t.Fatal(err)
			}
			directStore.AddEdge(e[0], e[1])
		}
		if _, err := c.DeleteEdge(ctx, info.ID, 0, 13); err != nil {
			t.Fatal(err)
		}
		directStore.DeleteEdge(0, 13)
		mutated, err := c.GraphInfo(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if fp := directStore.Snapshot().Fingerprint().String(); fp != mutated.Fingerprint {
			t.Fatalf("incremental fingerprints diverge: %s vs %s", fp, mutated.Fingerprint)
		}
		spec, _ := algo.Get("changli")
		check(t, spec, equivParams(spec))
		checkQuery(t)
	})

	t.Run("after-compact", func(t *testing.T) {
		if _, err := c.Compact(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		directStore.Compact()
		for _, name := range []string{"changli", "sparsecover"} {
			spec, _ := algo.Get(name)
			check(t, spec, equivParams(spec))
		}
		checkQuery(t)
	})
}

// TestBatchEquivalence runs every registry algorithm through one NDJSON
// batch stream and checks each line against the direct engine.
func TestBatchEquivalence(t *testing.T) {
	srv := New(engine.New(engine.Options{}), Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	info, err := c.Generate(ctx, "regular", 90, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Family("regular", 90, 3)
	if err != nil {
		t.Fatal(err)
	}
	directEngine := engine.New(engine.Options{})
	directHandle := directEngine.RegisterStore(store.New(g))

	specs := realSpecs(t)
	reqs := make([]RunRequest, len(specs))
	for i, spec := range specs {
		reqs[i] = RunRequest{Algo: spec.Name, Params: equivParams(spec)}
	}
	lines, err := c.Batch(ctx, info.ID, reqs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(lines) != len(specs) {
		t.Fatalf("want %d lines, got %d", len(specs), len(lines))
	}
	for i, line := range lines {
		if line.Error != "" || line.Result == nil {
			t.Fatalf("line %d (%s): %s", i, specs[i].Name, line.Error)
		}
		directRes, err := directEngine.Run(ctx, directHandle, specs[i].Name, equivParams(specs[i]))
		if err != nil {
			t.Fatalf("direct %s: %v", specs[i].Name, err)
		}
		if got, want := normalize(t, line.Result), normalize(t, WireResult(directRes)); !bytes.Equal(got, want) {
			t.Fatalf("%s batch line differs:\n http: %s\ndirect: %s", specs[i].Name, got, want)
		}
	}
}
