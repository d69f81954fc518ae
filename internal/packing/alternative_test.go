package packing

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/ilp"
	"repro/internal/problems"
	"repro/internal/solve"
)

func TestAlternativeMISOnCycle(t *testing.T) {
	g := gen.Cycle(200)
	inst := misOn(t, g)
	eps := 0.25
	opt, _ := problems.ExactOptimum(problems.MIS, g)
	for seed := uint64(0); seed < 3; seed++ {
		r := solveAlt(t, inst, Params{Epsilon: eps, Seed: seed}, 8)
		if ok, j := inst.Feasible(r.Solution); !ok {
			t.Fatalf("seed %d: infeasible at %d", seed, j)
		}
		if !problems.Verify(problems.MIS, g, r.Solution) {
			t.Fatalf("seed %d: not independent", seed)
		}
		// The alternative approach promises (1-O(eps)); allow 2*eps slack.
		if float64(r.Value) < (1-2*eps)*float64(opt) {
			t.Fatalf("seed %d: value %d < (1-2eps)*opt (%d)", seed, r.Value, opt)
		}
	}
}

func TestAlternativeMISOnTree(t *testing.T) {
	g := gen.CompleteDAryTree(2, 6)
	inst := misOn(t, g)
	opt, _ := problems.ExactOptimum(problems.MIS, g)
	r := solveAlt(t, inst, Params{Epsilon: 0.2, Seed: 1}, 6)
	if !problems.Verify(problems.MIS, g, r.Solution) {
		t.Fatal("not independent")
	}
	if float64(r.Value) < 0.6*float64(opt) {
		t.Fatalf("value %d vs opt %d", r.Value, opt)
	}
}

func TestAlternativeDefaultsTRuns(t *testing.T) {
	g := gen.Cycle(60)
	inst := misOn(t, g)
	// tRuns = 0 must pick the theory default (capped); it must not crash or
	// spin.
	r := solveAlt(t, inst, Params{Epsilon: 0.3, Seed: 2}, 0)
	if r.Value <= 0 {
		t.Fatalf("empty solution: %+v", r)
	}
}

func TestMembershipCountsCorrelateWithOptimum(t *testing.T) {
	// On a star, the leaves form the unique large MIS; their membership
	// counts must dominate the center's.
	g := gen.Star(20)
	inst := misOn(t, g)
	w := membershipCounts(inst, 10, 0.3, 3, solve.Options{})
	leafTotal := int64(0)
	for v := 1; v < 20; v++ {
		leafTotal += w[v]
	}
	if w[0] >= leafTotal {
		t.Fatalf("center proxy weight %d >= leaves total %d", w[0], leafTotal)
	}
	if leafTotal == 0 {
		t.Fatal("no membership recorded at all")
	}
}

func TestAlternativeDeterministic(t *testing.T) {
	g := gen.Cycle(80)
	inst := misOn(t, g)
	r1 := solveAlt(t, inst, Params{Epsilon: 0.3, Seed: 9}, 4)
	r2 := solveAlt(t, inst, Params{Epsilon: 0.3, Seed: 9}, 4)
	if r1.Value != r2.Value || r1.Rounds != r2.Rounds {
		t.Fatal("nondeterministic")
	}
}

func TestAlternativeCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inst := misOn(t, gen.Cycle(200))
	if _, err := SolveAlternative(ctx, inst, Params{Epsilon: 0.3, Seed: 1}, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// solveAlt runs SolveAlternative without a deadline; it cannot fail.
func solveAlt(t *testing.T, inst *ilp.Instance, p Params, tRuns int) *Result {
	t.Helper()
	r, err := SolveAlternative(context.Background(), inst, p, tRuns)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
