package packing

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
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

// TestGoldenAlternative pins SolveAlternative (the Section 4 alternative
// approach through the weighted decomposition) on seeded inputs: the
// solution bits, value and rounds. The cycle and grid rows run at scales
// where the weighted decomposition carves real clusters. Every worker
// count must reproduce them.
func TestGoldenAlternative(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		p     Params
		tRuns int
		want  string
	}{
		{"gnp", gen.GNP(1000, 8.0/999, xrand.New(1)), Params{Epsilon: 0.25, Seed: 1}, 6, "d5ead4855e59c83d value=282 rounds=350373"},
		{"cycle", gen.Cycle(2000), Params{Epsilon: 0.3, Seed: 2, Scale: 0.002}, 8, "8951df3dae6b647f value=996 rounds=3743"},
		{"grid", gen.Grid(40, 50), Params{Epsilon: 0.3, Seed: 3, Scale: 0.0002}, 8, "939eb397bb2e6d7e value=997 rounds=1412"},
	}
	for _, c := range cases {
		inst := misOn(t, c.g)
		for _, workers := range []int{1, 4} {
			p := c.p
			p.Workers = workers
			r := solveAlt(t, inst, p, c.tRuns)
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
			got := fmt.Sprintf("%016x value=%d rounds=%d", h.Sum64(), r.Value, r.Rounds)
			if got != c.want {
				t.Errorf("%s (workers %d): got %q, want %q", c.name, workers, got, c.want)
			}
		}
	}
}
