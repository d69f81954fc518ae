package gkm

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/problems"
	"repro/internal/xrand"
)

// TestGoldenSolutions pins whole GKM runs on a seeded GNP and a grid: the
// solution bits, value, LOCAL rounds and colour count of the network
// decomposition, for MIS (packing) and minimum vertex cover (covering).
// Rounds are charged per colour class, so any change to the accounting
// fails here even when the solution does not move.
func TestGoldenSolutions(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.Graph
		problem problems.Problem
		p       Params
		want    string
	}{
		{"gnp/mis", gen.GNP(1000, 3.0/999, xrand.New(5)), problems.MIS, Params{Epsilon: 0.3, Seed: 1, Scale: 0.05}, "ff1fec8f5dda8dcf value=466 rounds=456 colors=2"},
		{"gnp/vc", gen.GNP(1000, 3.0/999, xrand.New(5)), problems.MinVertexCover, Params{Epsilon: 0.3, Seed: 2, Scale: 0.05}, "d9d667e4efea47f9 value=694 rounds=456 colors=2"},
		{"grid/mis", gen.Grid(20, 25), problems.MIS, Params{Epsilon: 0.25, Seed: 3, Scale: 0.08}, "dfcdb4256d815c9d value=250 rounds=816 colors=4"},
		{"grid/vc", gen.Grid(20, 25), problems.MinVertexCover, Params{Epsilon: 0.25, Seed: 4, Scale: 0.08}, "e2c408e34c74582e value=349 rounds=816 colors=4"},
	}
	for _, c := range cases {
		inst, err := problems.Build(c.problem, c.g, nil)
		if err != nil {
			t.Fatal(err)
		}
		var r *Result
		if c.problem == problems.MIS {
			r = SolvePacking(inst, c.p)
		} else {
			r = SolveCovering(inst, c.p)
		}
		if ok, j := inst.Feasible(r.Solution); !ok {
			t.Fatalf("%s: infeasible at %d", c.name, j)
		}
		h := fnv.New64a()
		for _, set := range r.Solution {
			if set {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		got := fmt.Sprintf("%016x value=%d rounds=%d colors=%d", h.Sum64(), r.Value, r.Rounds, r.Colors)
		if got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}
