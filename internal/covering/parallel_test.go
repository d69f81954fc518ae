package covering

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/problems"
)

// TestParallelPreparationBitIdentical is the determinism cross-check: a
// seeded run must produce the exact same result — solution bits, value,
// rounds, region count — whether the preparation covers and Phase-2 region
// solves run sequentially (Workers: 1) or fan out across a pool.
func TestParallelPreparationBitIdentical(t *testing.T) {
	for _, build := range []struct {
		name string
		prob problems.Problem
		n    int
	}{
		{"vc-cycle", problems.MinVertexCover, 60},
		{"mds-cycle", problems.MinDominatingSet, 48},
	} {
		g := gen.Cycle(build.n)
		inst, err := problems.Build(build.prob, g, nil)
		if err != nil {
			t.Fatalf("%s: build: %v", build.name, err)
		}
		for _, seed := range []uint64{1, 7, 42} {
			base := Params{Epsilon: 0.3, Seed: seed, PrepRuns: 3}
			seq := base
			seq.Workers = 1
			parl := base
			parl.Workers = 6
			rs, err := SolveCtx(context.Background(), inst, seq)
			if err != nil {
				t.Fatalf("%s seed %d sequential: %v", build.name, seed, err)
			}
			rp, err := SolveCtx(context.Background(), inst, parl)
			if err != nil {
				t.Fatalf("%s seed %d parallel: %v", build.name, seed, err)
			}
			if !reflect.DeepEqual(rs, rp) {
				t.Fatalf("%s seed %d: sequential and parallel results differ:\nseq %+v\npar %+v",
					build.name, seed, rs, rp)
			}
		}
	}
}
