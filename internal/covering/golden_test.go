package covering

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/problems"
	"repro/internal/xrand"
)

// TestGoldenSolutions pins whole Theorem 1.3 runs on seeded GNP graphs
// (average degree 8) to the exact solutions the map-based local solvers
// produced. The local greedy and structured solvers must make the same
// picks in the same order, so any change to a single pick fails here.
func TestGoldenSolutions(t *testing.T) {
	cases := []struct {
		prob      problems.Problem
		n         int
		graphSeed uint64
		p         Params
		want      string
	}{
		{problems.MinDominatingSet, 300, 1, Params{Epsilon: 0.25, Seed: 1, PrepRuns: 3}, "e0d062f5a3781289 value=52 exact=false fixed=0"},
		{problems.MinDominatingSet, 400, 2, Params{Epsilon: 0.25, Seed: 9, PrepRuns: 3}, "d8022e637e6e8f38 value=63 exact=false fixed=0"},
		{problems.MinDominatingSet, 300, 3, Params{Epsilon: 0.3, Seed: 4, Scale: 0.002, PrepRuns: 2}, "756be7088efda00d value=50 exact=false fixed=0"},
		{problems.MinVertexCover, 300, 4, Params{Epsilon: 0.25, Seed: 2, PrepRuns: 3}, "bd1e7efaff0fadf4 value=213 exact=false fixed=0"},
		{problems.MinVertexCover, 300, 5, Params{Epsilon: 0.3, Seed: 6, Scale: 0.002, PrepRuns: 2}, "420fabbb60fbb16a value=205 exact=false fixed=0"},
	}
	for i, c := range cases {
		g := gen.GNP(c.n, 8/float64(c.n-1), xrand.New(c.graphSeed))
		inst := build(t, c.prob, g)
		r, err := Solve(inst, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if ok, j := inst.Feasible(r.Solution); !ok {
			t.Fatalf("case %d: infeasible at %d", i, j)
		}
		h := fnv.New64a()
		for _, set := range r.Solution {
			if set {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		got := fmt.Sprintf("%016x value=%d exact=%v fixed=%d", h.Sum64(), r.Value, r.Exact, r.FixedWeight)
		if got != c.want {
			t.Errorf("case %d (%v n=%d): got %q, want %q", i, c.prob, c.n, got, c.want)
		}
	}
}
