package ldd

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

func TestBlackboxENBaseAblation(t *testing.T) {
	// The UseElkinNeimanBase ablation swaps the whp inner base for the
	// in-expectation one; both must yield valid decompositions.
	g := gen.Cycle(1000)
	for _, useEN := range []bool{false, true} {
		d := must(BlackboxCtx(context.Background(), g, BlackboxParams{
			Epsilon: 0.25, Seed: 5, Scale: 0.02, UseElkinNeimanBase: useEN,
		}))
		if ok, u, v := d.ValidateSeparation(g); !ok {
			t.Fatalf("useEN=%v: adjacent clusters %d-%d", useEN, u, v)
		}
		if d.Rounds <= 0 {
			t.Fatalf("useEN=%v: no rounds", useEN)
		}
	}
}

func TestBlackboxDeterministic(t *testing.T) {
	g := gen.Cycle(600)
	p := BlackboxParams{Epsilon: 0.3, Seed: 11, Scale: 0.02}
	d1 := must(BlackboxCtx(context.Background(), g, p))
	d2 := must(BlackboxCtx(context.Background(), g, p))
	for v := range d1.ClusterOf {
		if d1.ClusterOf[v] != d2.ClusterOf[v] {
			t.Fatal("nondeterministic")
		}
	}
}

func TestBlackboxSmallEps(t *testing.T) {
	// Small epsilon means large k = 2/eps hops per growth; the cycle is
	// short relative to k so everything collapses to few clusters.
	g := gen.Cycle(300)
	d := must(BlackboxCtx(context.Background(), g, BlackboxParams{Epsilon: 0.05, Seed: 2, Scale: 0.05}))
	if ok, _, _ := d.ValidateSeparation(g); !ok {
		t.Fatal("separation broken")
	}
	if d.UnclusteredFraction() > 0.5 {
		t.Fatalf("unclustered %v", d.UnclusteredFraction())
	}
}

func TestBlackboxDisconnected(t *testing.T) {
	// Two components; both must be handled.
	b := newTwoCycles(150, 150)
	d := must(BlackboxCtx(context.Background(), b, BlackboxParams{Epsilon: 0.3, Seed: 3, Scale: 0.05}))
	if ok, _, _ := d.ValidateSeparation(b); !ok {
		t.Fatal("separation broken")
	}
	clustered := b.N() - d.UnclusteredCount()
	if clustered < b.N()/2 {
		t.Fatalf("only %d of %d clustered", clustered, b.N())
	}
}

func TestBlackboxEdgelessAndTiny(t *testing.T) {
	g := gen.Path(2)
	d := must(BlackboxCtx(context.Background(), g, BlackboxParams{Epsilon: 0.5, Seed: 1}))
	if ok, _, _ := d.ValidateSeparation(g); !ok {
		t.Fatal("tiny graph separation")
	}
}

// newTwoCycles builds two disjoint cycles of the given lengths.
func newTwoCycles(a, b int) *graph.Graph {
	gb := graph.NewBuilder(a + b)
	for i := 0; i < a; i++ {
		gb.AddEdge(i, (i+1)%a)
	}
	for i := 0; i < b; i++ {
		gb.AddEdge(a+i, a+(i+1)%b)
	}
	return gb.Build()
}
