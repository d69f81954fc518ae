package packing

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// TestGoldenSolutions pins whole Theorem 1.2 MIS runs on seeded GNP graphs
// (average degree 8) to the exact solutions the map-based local solvers
// produced. The local greedy and structured solvers must make the same
// picks in the same order, so any change to a single pick fails here.
func TestGoldenSolutions(t *testing.T) {
	cases := []struct {
		n         int
		graphSeed uint64
		p         Params
		want      string
	}{
		{1000, 1, Params{Epsilon: 0.25, Seed: 1, PrepRuns: 3}, "d5ead4855e59c83d value=282 exact=false"},
		{1000, 2, Params{Epsilon: 0.25, Seed: 7, PrepRuns: 3}, "e440794e6a41dcdd value=276 exact=false"},
		{600, 3, Params{Epsilon: 0.3, Seed: 5, Scale: 0.002, PrepRuns: 2}, "23284f1bad64cc92 value=165 exact=false"},
	}
	for i, c := range cases {
		g := gen.GNP(c.n, 8/float64(c.n-1), xrand.New(c.graphSeed))
		inst := misOn(t, g)
		r := Solve(inst, c.p)
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
		got := fmt.Sprintf("%016x value=%d exact=%v", h.Sum64(), r.Value, r.Exact)
		if got != c.want {
			t.Errorf("case %d (n=%d): got %q, want %q", i, c.n, got, c.want)
		}
	}
}
