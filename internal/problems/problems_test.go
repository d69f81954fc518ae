package problems

import (
	"errors"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/ilp"
	"repro/internal/xrand"
)

func TestStringAndKind(t *testing.T) {
	cases := []struct {
		p    Problem
		kind ilp.Kind
	}{
		{MIS, ilp.Packing},
		{MinVertexCover, ilp.Covering},
		{MinDominatingSet, ilp.Covering},
		{KDominatingSet, ilp.Covering},
		{MaxMatching, ilp.Packing},
	}
	for _, c := range cases {
		if c.p.String() == "" {
			t.Fatal("empty name")
		}
		if c.p.Kind() != c.kind {
			t.Fatalf("%v kind = %v", c.p, c.p.Kind())
		}
	}
	if Problem(99).String() == "" {
		t.Fatal("unknown problem should print")
	}
}

func TestBuildMIS(t *testing.T) {
	g := gen.Cycle(5)
	inst, err := Build(MIS, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Kind() != ilp.Packing || inst.NumConstraints() != 5 {
		t.Fatalf("kind=%v cons=%d", inst.Kind(), inst.NumConstraints())
	}
	sol := inst.NewSolution()
	sol[0], sol[2] = true, true
	if ok, _ := inst.Feasible(sol); !ok {
		t.Fatal("independent set rejected by ILP")
	}
	if !Verify(MIS, g, sol) {
		t.Fatal("verifier rejected valid IS")
	}
	sol[1] = true
	if ok, _ := inst.Feasible(sol); ok {
		t.Fatal("dependent set accepted")
	}
	if Verify(MIS, g, sol) {
		t.Fatal("verifier accepted invalid IS")
	}
}

func TestBuildVC(t *testing.T) {
	g := gen.Path(4)
	inst, err := Build(MinVertexCover, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol := inst.NewSolution()
	sol[1], sol[2] = true, true
	if ok, _ := inst.Feasible(sol); !ok {
		t.Fatal("cover rejected")
	}
	if !Verify(MinVertexCover, g, sol) {
		t.Fatal("verifier rejected cover")
	}
	sol[1] = false
	if Verify(MinVertexCover, g, sol) {
		t.Fatal("verifier accepted non-cover")
	}
}

func TestBuildMDS(t *testing.T) {
	g := gen.Star(6)
	inst, err := Build(MinDominatingSet, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol := inst.NewSolution()
	sol[0] = true // center dominates everything
	if ok, _ := inst.Feasible(sol); !ok {
		t.Fatal("center rejected as dominating set")
	}
	if !Verify(MinDominatingSet, g, sol) {
		t.Fatal("verifier rejected dominating set")
	}
	sol[0] = false
	sol[1] = true
	if Verify(MinDominatingSet, g, sol) {
		t.Fatal("one leaf cannot dominate a star")
	}
}

func TestBuildKDom(t *testing.T) {
	g := gen.Path(9)
	inst, err := BuildK(2, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol := inst.NewSolution()
	sol[2], sol[6] = true, true // radius-2 balls cover 0..4 and 4..8
	if ok, j := inst.Feasible(sol); !ok {
		t.Fatalf("2-dominating set rejected at %d", j)
	}
	if !VerifyK(KDominatingSet, 2, g, sol) {
		t.Fatal("verifier rejected 2-dominating set")
	}
	sol[6] = false
	if VerifyK(KDominatingSet, 2, g, sol) {
		t.Fatal("half coverage accepted")
	}
	if _, err := BuildK(0, g, nil); !errors.Is(err, ErrUnsupported) {
		t.Fatal("k=0 accepted")
	}
	if _, err := Build(KDominatingSet, g, nil); !errors.Is(err, ErrUnsupported) {
		t.Fatal("Build should redirect KDominatingSet to BuildK")
	}
}

func TestBuildMatching(t *testing.T) {
	g := gen.Path(4) // edges (0,1),(1,2),(2,3)
	inst, err := Build(MaxMatching, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumVars() != 3 {
		t.Fatalf("matching vars = %d", inst.NumVars())
	}
	sol := inst.NewSolution()
	sol[0], sol[2] = true, true // edges (0,1) and (2,3): valid
	if ok, _ := inst.Feasible(sol); !ok {
		t.Fatal("matching rejected")
	}
	if !Verify(MaxMatching, g, sol) {
		t.Fatal("verifier rejected matching")
	}
	sol[1] = true // edge (1,2) conflicts with both
	if ok, _ := inst.Feasible(sol); ok {
		t.Fatal("overlapping matching accepted")
	}
	if Verify(MaxMatching, g, sol) {
		t.Fatal("verifier accepted overlapping matching")
	}
	if _, err := Build(MaxMatching, g, []int64{1, 1, 1}); !errors.Is(err, ErrUnsupported) {
		t.Fatal("weights on matching accepted")
	}
}

func TestExactOptimum(t *testing.T) {
	// Tree.
	tree := gen.RandomTree(50, xrand.New(9))
	if v, err := ExactOptimum(MinDominatingSet, tree); err != nil || v <= 0 {
		t.Fatalf("tree MDS: %v %d", err, v)
	}
	// Bipartite (even cycle).
	c := gen.Cycle(10)
	if v, err := ExactOptimum(MIS, c); err != nil || v != 5 {
		t.Fatalf("C10 MIS: %v %d", err, v)
	}
	if v, err := ExactOptimum(MinVertexCover, c); err != nil || v != 5 {
		t.Fatalf("C10 MVC: %v %d", err, v)
	}
	if v, err := ExactOptimum(MaxMatching, c); err != nil || v != 5 {
		t.Fatalf("C10 matching: %v %d", err, v)
	}
	// Odd cycle: MDS has no exact path (not a forest, not bipartite ok for
	// MDS anyway).
	if _, err := ExactOptimum(MinDominatingSet, gen.Cycle(5)); !errors.Is(err, ErrUnsupported) {
		t.Fatal("odd-cycle MDS should be unsupported")
	}
	if _, err := ExactOptimum(MIS, gen.Complete(5)); !errors.Is(err, ErrUnsupported) {
		t.Fatal("K5 MIS should be unsupported")
	}
}

func TestExactOptimumKnownValues(t *testing.T) {
	// Path P7: MIS 4, MVC 3, MDS 3, matching 3.
	g := gen.Path(7)
	cases := []struct {
		p    Problem
		want int64
	}{{MIS, 4}, {MinVertexCover, 3}, {MinDominatingSet, 3}, {MaxMatching, 3}}
	for _, c := range cases {
		got, err := ExactOptimum(c.p, g)
		if err != nil {
			t.Fatalf("%v: %v", c.p, err)
		}
		if got != c.want {
			t.Fatalf("%v = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestWeightedBuild(t *testing.T) {
	g := gen.Path(3)
	w := []int64{5, 1, 5}
	inst, err := Build(MIS, g, w)
	if err != nil {
		t.Fatal(err)
	}
	sol := inst.NewSolution()
	sol[0], sol[2] = true, true
	if inst.Value(sol) != 10 {
		t.Fatalf("weighted value = %d", inst.Value(sol))
	}
}
