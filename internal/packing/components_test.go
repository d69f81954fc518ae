package packing

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ilp"
	"repro/internal/problems"
	"repro/internal/xrand"
)

// longPath is the length of the one long path in multiComponentMIS.
const longPath = 400

// multiComponentMIS builds an MIS instance on a graph whose components
// reach every local solver: GNP(600, 8/599) (greedy), a long path and
// short paths (tree DP), 6-cycles (König when unweighted), 5-cycles and
// K4s (branch-and-bound), and isolated vertices. weighted draws vertex
// weights in 1..5.
func multiComponentMIS(t testing.TB, weighted bool) *ilp.Instance {
	t.Helper()
	var edges [][2]int
	gen.GNP(600, 8.0/599, xrand.New(9)).Edges(func(u, v int) {
		edges = append(edges, [2]int{u, v})
	})
	n := 600
	path := func(k int) {
		for i := 0; i+1 < k; i++ {
			edges = append(edges, [2]int{n + i, n + i + 1})
		}
		n += k
	}
	cycle := func(k int) {
		path(k)
		edges = append(edges, [2]int{n - k, n - 1})
	}
	path(longPath)
	for k := 2; k <= 12; k++ {
		path(k)
	}
	for i := 0; i < 3; i++ {
		cycle(5)
		cycle(6)
	}
	for i := 0; i < 3; i++ {
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				edges = append(edges, [2]int{n + a, n + b})
			}
		}
		n += 4
	}
	n += 30 // isolated vertices
	var w []int64
	if weighted {
		rng := xrand.New(21)
		w = make([]int64, n)
		for i := range w {
			w[i] = 1 + int64(rng.Intn(5))
		}
	}
	inst, err := problems.Build(problems.MIS, graph.FromEdges(n, edges), w)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestGoldenMultiComponent pins whole runs on a many-component instance.
// At the default scale every preparation ball is a whole component, so the
// runs read the shared per-component estimates; at Scale 1e-6 the balls
// around clusters inside the long path stop short of its ends, so those
// clusters solve their own balls. The hashes were recorded before the
// estimates were shared, and every worker count must reproduce them.
func TestGoldenMultiComponent(t *testing.T) {
	cases := []struct {
		weighted bool
		p        Params
		want     string
	}{
		{false, Params{Epsilon: 0.25, Seed: 3, PrepRuns: 3}, "63f6a2fd31fda004 value=449 rounds=2134848 exact=false"},
		{true, Params{Epsilon: 0.25, Seed: 4, PrepRuns: 3}, "c1b78047df91b2c6 value=1570 rounds=2134848 exact=false"},
		{false, Params{Epsilon: 0.25, Seed: 5, PrepRuns: 3, Scale: 1e-6}, "67792ab30f110ee4 value=447 rounds=1396 exact=false"},
		{true, Params{Epsilon: 0.25, Seed: 6, PrepRuns: 3, Scale: 1e-6}, "c09c70d761d8bd8a value=1545 rounds=1348 exact=false"},
	}
	for i, c := range cases {
		inst := multiComponentMIS(t, c.weighted)
		n := inst.NumVars()
		d := derive(n, c.p)
		if c.p.Scale == 0 && d.estRadius < n {
			t.Fatalf("case %d: estimate radius %d does not cover every component", i, d.estRadius)
		}
		if c.p.Scale != 0 && 2*d.estRadius >= longPath {
			t.Fatalf("case %d: estimate radius %d covers the %d-vertex path", i, d.estRadius, longPath)
		}
		var first *Result
		for _, workers := range []int{1, 4} {
			p := c.p
			p.Workers = workers
			r := Solve(inst, p)
			if ok, j := inst.Feasible(r.Solution); !ok {
				t.Fatalf("case %d workers %d: infeasible at %d", i, workers, j)
			}
			if first == nil {
				first = r
			} else if !reflect.DeepEqual(first, r) {
				t.Fatalf("case %d: workers 1 and %d differ: value %d/%d, rounds %d/%d",
					i, workers, first.Value, r.Value, first.Rounds, r.Rounds)
			}
		}
		h := fnv.New64a()
		for _, set := range first.Solution {
			if set {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		got := fmt.Sprintf("%016x value=%d rounds=%d exact=%v", h.Sum64(), first.Value, first.Rounds, first.Exact)
		if got != c.want {
			t.Errorf("case %d: got %q, want %q", i, got, c.want)
		}
	}
}
