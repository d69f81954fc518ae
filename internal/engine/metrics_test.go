package engine

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestEngineMetricsPopulate drives hits, a compute, and joiners through the
// engine and checks the right histograms fill.
func TestEngineMetricsPopulate(t *testing.T) {
	g := benchGraph()
	// Sample every hit so the test is deterministic.
	e := New(Options{MetricsSampleEvery: 1})
	h := e.Register(g)
	p := benchParams()

	if _, err := changli(context.Background(), e, h, p); err != nil {
		t.Fatal(err)
	}
	const hits = 50
	for i := 0; i < hits; i++ {
		if _, err := changli(context.Background(), e, h, p); err != nil {
			t.Fatal(err)
		}
	}

	m := e.Metrics()
	if m.SampleEvery() != 1 {
		t.Fatalf("SampleEvery = %d want 1", m.SampleEvery())
	}
	if got := m.Compute.Snapshot().Count; got != 1 {
		t.Fatalf("compute observations = %d want 1", got)
	}
	hitSnap := m.Hit.Snapshot()
	if hitSnap.Count != hits {
		t.Fatalf("hit observations = %d want %d", hitSnap.Count, hits)
	}
	if hitSnap.Quantile(0.5) <= 0 {
		t.Fatal("hit p50 must be positive")
	}
	// All hits for one key land on one shard.
	if len(m.ShardHit) != e.NumShards() {
		t.Fatalf("ShardHit len %d want %d", len(m.ShardHit), e.NumShards())
	}
	var shardTotal uint64
	nonEmpty := 0
	for i := range m.ShardHit {
		c := m.ShardHit[i].Snapshot().Count
		shardTotal += c
		if c > 0 {
			nonEmpty++
		}
	}
	if shardTotal != hits || nonEmpty != 1 {
		t.Fatalf("per-shard hits: total %d (want %d) across %d shards (want 1)", shardTotal, hits, nonEmpty)
	}
}

// TestEngineJoinWaitMetric forces joiners behind one slow compute.
func TestEngineJoinWaitMetric(t *testing.T) {
	g := benchGraph()
	e := New(Options{MetricsSampleEvery: 1})
	h := e.Register(g)
	p := benchParams()

	const joiners = 4
	var wg sync.WaitGroup
	for i := 0; i < joiners+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := changli(context.Background(), e, h, p); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	m := e.Metrics()
	st := e.Stats()
	if got := m.JoinWait.Snapshot().Count; got != st.Dedup {
		t.Fatalf("join-wait observations = %d, dedup = %d; must agree", got, st.Dedup)
	}
}

// TestEngineStampsTraceLabels verifies the engine labels a carried trace
// with algo, canonical key, and snapshot fingerprint, and that the compute
// phase lands in the trace.
func TestEngineStampsTraceLabels(t *testing.T) {
	g := benchGraph()
	e := New(Options{})
	h := e.Register(g)
	p := benchParams()

	tracer := obs.NewTracer(obs.TracerOptions{RingSize: 4})
	ctx, tr := tracer.Start(context.Background(), "test-run")
	if _, err := changli(ctx, e, h, p); err != nil {
		t.Fatal(err)
	}
	tr.Finish(0)

	s := tracer.Recent(1)[0]
	if s.Algo != "changli" {
		t.Fatalf("algo = %q", s.Algo)
	}
	if !strings.HasPrefix(s.Key, "changli|") {
		t.Fatalf("key = %q", s.Key)
	}
	if s.Snapshot != h.Fingerprint().String() {
		t.Fatalf("snapshot = %q want %q", s.Snapshot, h.Fingerprint().String())
	}
	foundCompute := false
	for _, ph := range s.Phases {
		if ph.Name == "compute" && ph.Dur > 0 {
			foundCompute = true
		}
	}
	if !foundCompute {
		t.Fatalf("no compute phase in trace: %+v", s.Phases)
	}
}
