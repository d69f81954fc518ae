package covering

import (
	"context"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/problems"
	"repro/internal/solve"
)

func TestGrowCarveCoveringWindow(t *testing.T) {
	// Path P40, VC instance, centre 0, interval [3, 8]. The carve must pick
	// an odd j* in the window, fix the local cover on layers {j*, j*+1},
	// delete the crossing constraints (they become satisfied), and remove
	// radius <= j*.
	g := gen.Path(40)
	inst, err := problems.Build(problems.MinVertexCover, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := &state{
		inst:     inst,
		g:        g,
		alive:    make([]bool, 40),
		removed:  make([]bool, 40),
		solution: inst.NewSolution(),
		used:     make([]float64, inst.NumConstraints()),
		exact:    true,
		opt:      solve.Options{},
	}
	for i := range st.alive {
		st.alive[i] = true
	}
	if _, err := st.growCarveCovering(context.Background(), []int32{0}, 3, 8, testWorker()); err != nil {
		t.Fatal(err)
	}
	// Some interior must be removed and some weight fixed.
	removedCount := 0
	for _, r := range st.removed {
		if r {
			removedCount++
		}
	}
	if removedCount < 4 {
		t.Fatalf("removed %d vertices, want >= 4 (radius >= 3)", removedCount)
	}
	fixed := st.solution.CountOnes()
	if fixed == 0 {
		t.Fatal("carve fixed no assignment")
	}
	// The crossing edge at the removal boundary must be satisfied: the edge
	// between the last removed layer and the first alive one.
	boundary := removedCount // vertices 0..removedCount-1 removed on a path
	if boundary < 40 {
		if !st.solution[boundary-1] && !st.solution[boundary] {
			t.Fatalf("boundary edge %d-%d uncovered after carve", boundary-1, boundary)
		}
	}
}

func TestGrowCarveCoveringExhausted(t *testing.T) {
	g := gen.Path(5)
	inst, err := problems.Build(problems.MinVertexCover, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := &state{
		inst:     inst,
		g:        g,
		alive:    []bool{true, true, true, true, true},
		removed:  make([]bool, 5),
		solution: inst.NewSolution(),
		used:     make([]float64, inst.NumConstraints()),
		exact:    true,
	}
	if _, err := st.growCarveCovering(context.Background(), []int32{2}, 8, 12, testWorker()); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if !st.removed[v] {
			t.Fatalf("vertex %d not removed in exhausted component", v)
		}
	}
	if st.solution.CountOnes() != 0 {
		t.Fatal("exhausted removal should fix nothing (handled in Phase 2)")
	}
}

func TestGrowCarveCoveringDeadSeed(t *testing.T) {
	g := gen.Path(5)
	inst, err := problems.Build(problems.MinVertexCover, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := &state{
		inst:     inst,
		g:        g,
		alive:    make([]bool, 5),
		removed:  make([]bool, 5),
		solution: inst.NewSolution(),
		used:     make([]float64, inst.NumConstraints()),
	}
	if _, err := st.growCarveCovering(context.Background(), []int32{2}, 1, 3, testWorker()); err != nil {
		t.Fatal(err)
	}
	for _, r := range st.removed {
		if r {
			t.Fatal("dead seed removed vertices")
		}
	}
}

func TestSmallIntervalEndToEndCovering(t *testing.T) {
	// Tiny scale on a long cycle so Phase-1 carving fires for real; result
	// must remain a valid cover.
	g := gen.Cycle(800)
	inst, err := problems.Build(problems.MinVertexCover, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveCtx(context.Background(), inst, Params{Epsilon: 0.3, Seed: 9, Scale: 0.0005, PrepRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !problems.Verify(problems.MinVertexCover, g, r.Solution) {
		t.Fatal("not a cover")
	}
	if r.Value < 400 {
		t.Fatalf("cycle cover %d < n/2", r.Value)
	}
}

// testWorker returns a fresh worker scratch for direct carve tests.
func testWorker() *worker { return newWorkers(1)[0] }
