package covering

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ilp"
	"repro/internal/obs"
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
		r, err := SolveCtx(context.Background(), inst, c.p)
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

// mdsHash is the fingerprint the MDS golden tests compare: the solution
// bits, value, rounds and exactness of one run.
func mdsHash(r *Result) string {
	h := fnv.New64a()
	for _, set := range r.Solution {
		if set {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return fmt.Sprintf("%016x value=%d rounds=%d exact=%v", h.Sum64(), r.Value, r.Rounds, r.Exact)
}

// disjointUnion places the given graphs side by side, each shifted past
// the previous ones.
func disjointUnion(gs ...*graph.Graph) *graph.Graph {
	var edges [][2]int
	n := 0
	for _, g := range gs {
		off := n
		g.Edges(func(u, v int) {
			edges = append(edges, [2]int{off + u, off + v})
		})
		n += g.N()
	}
	return graph.FromEdges(n, edges)
}

// TestGoldenMDSPreparationShare pins minimum dominating set runs in the
// shape of the covering benchmark's requests (GNP(1000, 8/999), ε 0.25,
// three preparation covers) at seeds 1–8, and on the disjoint union of two
// such graphs, where preparation clusters equal to one of the two
// components read that component's shared estimate. The hashes were
// recorded before preparation clusters shared estimates and before the
// label search stopped pushing duplicate labels; the rounds were
// re-recorded when Phase 1 stopped charging carves that gather nothing.
func TestGoldenMDSPreparationShare(t *testing.T) {
	gnp := func(seed uint64) *graph.Graph { return gen.GNP(1000, 8.0/999, xrand.New(seed)) }
	single := build(t, problems.MinDominatingSet, gnp(7))
	union := build(t, problems.MinDominatingSet, disjointUnion(gnp(7), gnp(8)))
	mixed := build(t, problems.MinDominatingSet, disjointUnion(gnp(7), gen.Cycle(4000)))
	cases := []struct {
		inst  *ilp.Instance
		seed  uint64
		scale float64
		want  string
	}{
		{single, 1, 0, "09801a919be1f938 value=177 rounds=2014550 exact=false"},
		{single, 2, 0, "09801a919be1f938 value=177 rounds=2014550 exact=false"},
		{single, 3, 0, "09801a919be1f938 value=177 rounds=2014550 exact=false"},
		{single, 4, 0, "09801a919be1f938 value=177 rounds=2014550 exact=false"},
		{single, 5, 0, "09801a919be1f938 value=177 rounds=2014550 exact=false"},
		{single, 6, 0, "09801a919be1f938 value=177 rounds=2014550 exact=false"},
		{single, 7, 0, "09801a919be1f938 value=177 rounds=2014550 exact=false"},
		{single, 8, 0, "09801a919be1f938 value=177 rounds=2014550 exact=false"},
		{union, 1, 0, "4fc8acf713883715 value=348 rounds=2217068 exact=false"},
		{union, 2, 0, "4fc8acf713883715 value=348 rounds=2217068 exact=false"},
		{union, 3, 0, "4fc8acf713883715 value=348 rounds=2217068 exact=false"},
		{mixed, 1, 1e-4, "06a72cfce0c12fb8 value=1513 rounds=3098 exact=false"},
		{mixed, 2, 1e-4, "291a4e8bc9e713d4 value=1513 rounds=3358 exact=false"},
		{mixed, 3, 1e-4, "413b42bc2994b3a1 value=1512 rounds=3338 exact=false"},
	}
	for i, c := range cases {
		r, err := SolveCtx(context.Background(), c.inst, Params{Epsilon: 0.25, Seed: c.seed, Scale: c.scale, PrepRuns: 3})
		if err != nil {
			t.Fatal(err)
		}
		if ok, j := c.inst.Feasible(r.Solution); !ok {
			t.Fatalf("case %d: infeasible at %d", i, j)
		}
		if got := mdsHash(r); got != c.want {
			t.Errorf("case %d (n=%d seed %d): got %q, want %q", i, c.inst.NumVars(), c.seed, got, c.want)
		}
	}
}

// TestCarveChargesOnlyGatheredBalls runs the single-component case of
// TestGoldenMDSPreparationShare under a trace. At the paper's radius the
// first carve that gathers a ball removes the whole component, so every
// later sampled cluster has nothing left to gather: each carve-i phase
// after the first one that charges rounds must record 0.
func TestCarveChargesOnlyGatheredBalls(t *testing.T) {
	inst := build(t, problems.MinDominatingSet, gen.GNP(1000, 8.0/999, xrand.New(7)))
	tracer := obs.NewTracer(obs.TracerOptions{RingSize: 1})
	ctx, tr := tracer.Start(context.Background(), "covering")
	r, err := SolveCtx(ctx, inst, Params{Epsilon: 0.25, Seed: 1, PrepRuns: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish(0)
	charged, carves, sum := false, 0, 0
	for _, ph := range tracer.Recent(1)[0].Phases {
		sum += ph.Rounds
		if !strings.HasPrefix(ph.Name, "carve-") {
			continue
		}
		carves++
		if charged && ph.Rounds != 0 {
			t.Errorf("%s charges %d rounds after the component was carved", ph.Name, ph.Rounds)
		}
		charged = charged || ph.Rounds > 0
	}
	if !charged || carves < 2 {
		t.Fatalf("%d carve phases, one charged: %v", carves, charged)
	}
	if sum != r.Rounds {
		t.Fatalf("phase rounds sum to %d, Rounds = %d", sum, r.Rounds)
	}
}
