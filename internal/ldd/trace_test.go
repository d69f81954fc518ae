package ldd_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/covering"
	"repro/internal/gkm"
	"repro/internal/graph/gen"
	"repro/internal/ldd"
	"repro/internal/obs"
	"repro/internal/packing"
	"repro/internal/problems"
	"repro/internal/xrand"
)

// TestChangLiTracePhases checks that every round-charging entry point
// stamps its paper-phase structure into a carried trace, that the rounds
// its phases record add up to the Rounds it reports, and that running
// traced changes nothing about the result. Blackbox and the alternative
// packing approach nest a whole decomposition's phases inside their own,
// so for them only the traced run is compared with the untraced one.
func TestChangLiTracePhases(t *testing.T) {
	g := gen.GNP(400, 8.0/400, xrand.New(3))
	p := ldd.Params{Epsilon: 0.3, Seed: 7, Scale: 0.05}
	w := make([]int64, g.N())
	for v := range w {
		w[v] = int64(v % 5)
	}
	mis, err := problems.Build(problems.MIS, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := problems.Build(problems.MinVertexCover, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	pp := packing.Params{Epsilon: 0.3, Seed: 7, Scale: 0.05, PrepRuns: 2}
	cp := covering.Params{Epsilon: 0.3, Seed: 7, Scale: 0.05, PrepRuns: 2}
	gp := gkm.Params{Epsilon: 0.3, Seed: 7, Scale: 0.05}
	carve := []string{"estimate", "carve-1", "phase2-carve", "phase3-en", "assemble"}

	// Each run returns its result and the Rounds it reports.
	type runFunc func(ctx context.Context) (any, int, error)
	runs := []struct {
		name string
		// phases the entry point opens; nil when nested phases make the
		// trace's rounds a superset of the entry point's.
		phases []string
		run    runFunc
	}{
		{"changli", carve, func(ctx context.Context) (any, int, error) {
			d, err := ldd.ChangLiCtx(ctx, g, p)
			return d, rounds(d, err), err
		}},
		{"weighted", carve, func(ctx context.Context) (any, int, error) {
			d, err := ldd.ChangLiWeightedCtx(ctx, g, w, p)
			return d, rounds(d, err), err
		}},
		{"packing", []string{"preparation", "carve-1", "phase2-carve", "phase3-en", "local-solves"}, func(ctx context.Context) (any, int, error) {
			r, err := packing.SolveCtx(ctx, mis, pp)
			if err != nil {
				return nil, 0, err
			}
			return r, r.Rounds, nil
		}},
		{"covering", []string{"preparation", "carve-1", "phase2-cover", "phase2-solves"}, func(ctx context.Context) (any, int, error) {
			r, err := covering.SolveCtx(ctx, vc, cp)
			if err != nil {
				return nil, 0, err
			}
			return r, r.Rounds, nil
		}},
		{"gkm", []string{"netdecomp", "color-0"}, func(ctx context.Context) (any, int, error) {
			r, err := gkm.SolvePackingCtx(ctx, mis, gp)
			if err != nil {
				return nil, 0, err
			}
			return r, r.Rounds, nil
		}},
		{"blackbox", nil, func(ctx context.Context) (any, int, error) {
			d, err := ldd.BlackboxCtx(ctx, g, ldd.BlackboxParams{Epsilon: 1, Seed: 7, Scale: 0.05})
			return d, rounds(d, err), err
		}},
		{"alternative", nil, func(ctx context.Context) (any, int, error) {
			r, err := packing.SolveAlternative(ctx, mis, packing.Params{Epsilon: 0.3, Seed: 7, Scale: 0.05}, 3)
			if err != nil {
				return nil, 0, err
			}
			return r, r.Rounds, nil
		}},
	}
	for _, r := range runs {
		plain, wantRounds, err := r.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		tracer := obs.NewTracer(obs.TracerOptions{RingSize: 2})
		ctx, tr := tracer.Start(context.Background(), r.name)
		traced, _, err := r.run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish(0)

		if !reflect.DeepEqual(traced, plain) {
			t.Fatalf("%s: traced run differs from the untraced one", r.name)
		}
		s := tracer.Recent(1)[0]
		if r.phases == nil {
			continue
		}
		names := make([]string, len(s.Phases))
		var sumRounds int
		var sumDur int64
		for i, ph := range s.Phases {
			names[i] = ph.Name
			sumRounds += ph.Rounds
			sumDur += int64(ph.Dur)
		}
		joined := "," + strings.Join(names, ",") + ","
		for _, want := range r.phases {
			if !strings.Contains(joined, ","+want+",") {
				t.Fatalf("%s: missing phase %q in %s", r.name, want, joined)
			}
		}
		if sumRounds != wantRounds {
			t.Fatalf("%s: phase rounds sum to %d, Rounds = %d", r.name, sumRounds, wantRounds)
		}
		// Phases are sequential here, so they must nest within the total.
		if sumDur > int64(s.Total) {
			t.Fatalf("%s: phase sum %d exceeds total %d", r.name, sumDur, s.Total)
		}
	}
}

func rounds(d *ldd.Decomposition, err error) int {
	if err != nil {
		return 0
	}
	return d.Rounds
}
