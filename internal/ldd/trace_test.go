package ldd

import (
	"context"
	"strings"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// TestChangLiTracePhases checks the decomposition stamps its paper-phase
// structure into a carried trace — and that running traced changes nothing
// about the result. The weighted variant runs the same body, so it is
// checked the same way.
func TestChangLiTracePhases(t *testing.T) {
	g := gen.GNP(400, 8.0/400, xrand.New(3))
	p := Params{Epsilon: 0.3, Seed: 7, Scale: 0.05}
	w := make([]int64, g.N())
	for v := range w {
		w[v] = int64(v % 5)
	}
	runs := []struct {
		name string
		run  func(ctx context.Context) (*Decomposition, error)
	}{
		{"changli", func(ctx context.Context) (*Decomposition, error) { return ChangLiCtx(ctx, g, p) }},
		{"weighted", func(ctx context.Context) (*Decomposition, error) { return ChangLiWeightedCtx(ctx, g, w, p) }},
	}
	for _, r := range runs {
		plain, err := r.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		tracer := obs.NewTracer(obs.TracerOptions{RingSize: 2})
		ctx, tr := tracer.Start(context.Background(), r.name)
		traced, err := r.run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish(0)

		if traced.NumClusters != plain.NumClusters || traced.Rounds != plain.Rounds {
			t.Fatalf("%s: traced run differs: %d/%d clusters, %d/%d rounds", r.name,
				traced.NumClusters, plain.NumClusters, traced.Rounds, plain.Rounds)
		}
		for v := range plain.ClusterOf {
			if traced.ClusterOf[v] != plain.ClusterOf[v] {
				t.Fatalf("%s: traced run differs at vertex %d", r.name, v)
			}
		}

		s := tracer.Recent(1)[0]
		names := make([]string, len(s.Phases))
		for i, ph := range s.Phases {
			names[i] = ph.Name
		}
		joined := strings.Join(names, ",")
		for _, want := range []string{"estimate", "carve-1", "phase2-carve", "phase3-en", "assemble"} {
			if !strings.Contains(joined, want) {
				t.Fatalf("%s: missing phase %q in %s", r.name, want, joined)
			}
		}
		// Phases are sequential here, so they must nest within the total.
		var sum int64
		for _, ph := range s.Phases {
			sum += int64(ph.Dur)
		}
		if sum > int64(s.Total) {
			t.Fatalf("%s: phase sum %d exceeds total %d", r.name, sum, s.Total)
		}
	}
}
