package packing

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ldd"
	"repro/internal/solve"
)

func allAlive(n int) []bool {
	a := make([]bool, n)
	for i := range a {
		a[i] = true
	}
	return a
}

func TestGrowCarvePackingWindow(t *testing.T) {
	// Path P30, MIS instance, centre 0, interval [4, 9] (a ≡ 1 mod 3,
	// length 6). Layers from vertex 0 are singletons; the local MIS of the
	// radius-8 ball P9 is {0,2,4,6,8}. Candidate triples: j=4 covers layers
	// {4,5,6} (solution weight 2: vertices 4, 6); j=7 covers {7,8,9} with
	// layer 9 outside the ball (solution weight 1: vertex 8). So j* = 7,
	// layer 8 is deleted, and radius <= 7 is removed.
	g := gen.Path(30)
	inst := misOn(t, g)
	alive := allAlive(30)
	oc, exact := growCarvePacking(context.Background(), inst, g, []int32{0}, 4, 9, alive, solve.Options{}, new(graph.ParWorkspace), new(solve.Scratch))
	if !exact {
		t.Fatal("path-structured solve should be exact")
	}
	if oc == nil {
		t.Fatal("nil outcome")
	}
	if len(oc.Deleted) != 1 || oc.Deleted[0] != 8 {
		t.Fatalf("deleted = %v, want [8]", oc.Deleted)
	}
	if len(oc.Removed) != 8 {
		t.Fatalf("removed %d vertices, want 8 (radius 7)", len(oc.Removed))
	}
}

func TestGrowCarvePackingExhausted(t *testing.T) {
	// Ball exhausts before the window: whole component removed, nothing
	// deleted.
	g := gen.Path(5)
	inst := misOn(t, g)
	alive := allAlive(5)
	oc, _ := growCarvePacking(context.Background(), inst, g, []int32{2}, 7, 12, alive, solve.Options{}, new(graph.ParWorkspace), new(solve.Scratch))
	if len(oc.Deleted) != 0 {
		t.Fatalf("deleted = %v, want none", oc.Deleted)
	}
	if len(oc.Removed) != 5 {
		t.Fatalf("removed %d, want the whole component", len(oc.Removed))
	}
}

func TestGrowCarvePackingDeadSeed(t *testing.T) {
	g := gen.Path(5)
	inst := misOn(t, g)
	alive := make([]bool, 5)
	oc, _ := growCarvePacking(context.Background(), inst, g, []int32{2}, 1, 3, alive, solve.Options{}, new(graph.ParWorkspace), new(solve.Scratch))
	if oc != nil {
		t.Fatal("dead seed should return nil")
	}
}

func TestApplyCarvesDeletePriority(t *testing.T) {
	alive := allAlive(6)
	removed := make([]bool, 6)
	deletedMark := make([]bool, 6)
	outcomes := []*ldd.CarveOutcome{
		{Removed: []int32{0, 1, 2}, Deleted: []int32{3}},
		{Removed: []int32{3, 4}, Deleted: []int32{1}}, // conflicts: 3 deleted by first, 1 by second
		nil, // an unsampled carve
	}
	ldd.ApplyCarves(outcomes, alive, removed, deletedMark)
	if removed[3] || removed[1] {
		t.Fatal("deletion must win over removal")
	}
	if !deletedMark[3] || !deletedMark[1] {
		t.Fatal("deletions not recorded")
	}
	if !removed[0] || !removed[2] || !removed[4] {
		t.Fatal("clean removals missing")
	}
	for v := 0; v < 5; v++ {
		if alive[v] {
			t.Fatalf("vertex %d still alive", v)
		}
	}
	if !alive[5] {
		t.Fatal("untouched vertex died")
	}
}

func TestSmallIntervalEndToEnd(t *testing.T) {
	// Force the carving interior end-to-end with a scale small enough that
	// the first interval fits inside a long cycle: the run must stay
	// feasible and produce multiple components.
	g := gen.Cycle(800)
	inst := misOn(t, g)
	r := must(SolveCtx(context.Background(), inst, Params{Epsilon: 0.3, Seed: 3, Scale: 0.001, PrepRuns: 1}))
	if ok, j := inst.Feasible(r.Solution); !ok {
		t.Fatalf("infeasible at %d", j)
	}
	if r.NumComponents < 2 {
		t.Logf("components = %d (carve may not have fired; acceptable)", r.NumComponents)
	}
	if r.Value < 240 {
		t.Fatalf("cycle MIS value %d implausibly small", r.Value)
	}
}
