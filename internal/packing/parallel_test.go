package packing

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/problems"
	"repro/internal/xrand"
)

// TestParallelPreparationBitIdentical mirrors the covering cross-check for
// the packing pipeline: preparation decompositions, per-iteration carves,
// and final region solves all fan out, and the merged result must be
// bit-identical to the sequential path for any worker count. On the GNP
// input the local solves go greedy on several workers at once, each on its
// own solve scratch.
func TestParallelPreparationBitIdentical(t *testing.T) {
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		greedy bool
	}{
		{"cycle", gen.Cycle(80), false},
		{"gnp", gen.GNP(2000, 8.0/1999, xrand.New(6)), true},
	} {
		inst, err := problems.Build(problems.MIS, c.g, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{2, 11, 99} {
			base := Params{Epsilon: 0.25, Seed: seed, PrepRuns: 3}
			seq := base
			seq.Workers = 1
			parl := base
			parl.Workers = 6
			rs := Solve(inst, seq)
			rp := Solve(inst, parl)
			if !reflect.DeepEqual(rs, rp) {
				t.Fatalf("%s seed %d: sequential and parallel results differ:\nseq %+v\npar %+v", c.name, seed, rs, rp)
			}
			if rs.Exact == c.greedy {
				t.Fatalf("%s seed %d: Exact = %v, want %v", c.name, seed, rs.Exact, !c.greedy)
			}
		}
	}
}
