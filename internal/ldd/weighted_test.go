package ldd

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

func TestWeightedNilFallsBack(t *testing.T) {
	g := gen.Cycle(300)
	p := Params{Epsilon: 0.3, Seed: 1}
	dw := ChangLiWeighted(g, nil, p)
	du := ChangLi(g, p)
	if dw.NumClusters != du.NumClusters || dw.Rounds != du.Rounds {
		t.Fatalf("nil-weight run diverged from unweighted: %d/%d clusters, %d/%d rounds",
			dw.NumClusters, du.NumClusters, dw.Rounds, du.Rounds)
	}
	for v := range dw.ClusterOf {
		if dw.ClusterOf[v] != du.ClusterOf[v] {
			t.Fatalf("nil-weight run diverged from unweighted at vertex %d: %d vs %d",
				v, dw.ClusterOf[v], du.ClusterOf[v])
		}
	}
}

func TestWeightedSeparationAndBound(t *testing.T) {
	g := gen.Cycle(1500)
	rng := xrand.New(4)
	w := make([]int64, g.N())
	var total int64
	for i := range w {
		w[i] = 1 + int64(rng.Intn(9))
		total += w[i]
	}
	eps := 0.25
	for seed := uint64(0); seed < 5; seed++ {
		d := ChangLiWeighted(g, w, Params{Epsilon: eps, Seed: seed})
		if ok, u, v := d.ValidateSeparation(g); !ok {
			t.Fatalf("seed %d: adjacent clusters %d-%d", seed, u, v)
		}
		if del := d.DeletedWeight(w); float64(del) > eps*float64(total) {
			t.Fatalf("seed %d: deleted weight %d > eps * total (%d)", seed, del, total)
		}
	}
}

func TestWeightedProtectsHeavyVertices(t *testing.T) {
	// A long cycle with a few very heavy vertices and a small carve scale:
	// the deleted weight must stay within the eps budget even though
	// unweighted carving would delete vertices blindly.
	g := gen.Cycle(2000)
	w := make([]int64, g.N())
	var total int64
	for i := range w {
		w[i] = 1
		if i%100 == 0 {
			w[i] = 500
		}
		total += w[i]
	}
	eps := 0.3
	for seed := uint64(0); seed < 3; seed++ {
		d := ChangLiWeighted(g, w, Params{Epsilon: eps, Seed: seed, Scale: 0.002})
		if ok, _, _ := d.ValidateSeparation(g); !ok {
			t.Fatalf("seed %d: separation broken", seed)
		}
		if del := d.DeletedWeight(w); float64(del) > eps*float64(total) {
			t.Fatalf("seed %d: deleted weight %d > %.0f", seed, del, eps*float64(total))
		}
	}
}

func TestWeightedZeroWeights(t *testing.T) {
	// All-zero weights: nothing is sampled; Phase 3 still runs and the
	// result is a valid decomposition with zero deleted weight trivially.
	g := gen.Grid(10, 10)
	w := make([]int64, g.N())
	d := ChangLiWeighted(g, w, Params{Epsilon: 0.3, Seed: 2})
	if ok, _, _ := d.ValidateSeparation(g); !ok {
		t.Fatal("separation broken")
	}
	if d.DeletedWeight(w) != 0 {
		t.Fatal("zero weights deleted nonzero weight")
	}
}

func TestWeightedCarvePicksLightestLayer(t *testing.T) {
	// Star from a leaf: layer 1 = {center} can be heavy, layer 2 = other
	// leaves light. The weighted carve must cut the cheaper layer 2 even
	// though it has more vertices.
	g := gen.Star(20)
	w := make([]int64, g.N())
	w[0] = 1000 // heavy center
	for i := 1; i < g.N(); i++ {
		w[i] = 1
	}
	alive := make([]bool, g.N())
	for i := range alive {
		alive[i] = true
	}
	oc := GrowCarve(g, 1, 1, 2, alive, w, new(graph.ParWorkspace), 1)
	if oc.JStar != 2 {
		t.Fatalf("jStar = %d, want 2 (the light layer)", oc.JStar)
	}
	for _, v := range oc.Deleted {
		if v == 0 {
			t.Fatal("heavy center deleted")
		}
	}
}

// TestChangLiWeightedParallelBitIdentical mirrors the unweighted
// cross-check for the weighted fan-out (ball weights + per-iteration
// carves): seeded runs are bit-identical for any worker count.
func TestChangLiWeightedParallelBitIdentical(t *testing.T) {
	g := gen.Cycle(150)
	w := make([]int64, g.N())
	for i := range w {
		w[i] = int64(1 + i%5)
	}
	for _, seed := range []uint64{3, 17} {
		seq := ChangLiWeighted(g, w, Params{Epsilon: 0.25, Seed: seed, Scale: 0.01, Workers: 1})
		parl := ChangLiWeighted(g, w, Params{Epsilon: 0.25, Seed: seed, Scale: 0.01, Workers: 5})
		if seq.NumClusters != parl.NumClusters || seq.Rounds != parl.Rounds {
			t.Fatalf("seed=%d: summary mismatch: seq %+v par %+v", seed, seq, parl)
		}
		for v := range seq.ClusterOf {
			if seq.ClusterOf[v] != parl.ClusterOf[v] {
				t.Fatalf("seed=%d: cluster of %d differs: %d vs %d", seed, v, seq.ClusterOf[v], parl.ClusterOf[v])
			}
		}
	}
}
