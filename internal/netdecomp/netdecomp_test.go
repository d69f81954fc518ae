package netdecomp

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

func TestValidDecomposition(t *testing.T) {
	g := gen.Grid(20, 20)
	for seed := uint64(0); seed < 5; seed++ {
		d := must(DecomposeCtx(context.Background(), g, Params{Seed: seed}))
		if !d.Validate(g) {
			t.Fatalf("seed %d: invalid decomposition", seed)
		}
		if d.NumColors < 1 {
			t.Fatal("no colors")
		}
	}
}

func TestColorCountLogarithmic(t *testing.T) {
	g := gen.Torus(30, 30)
	d := must(DecomposeCtx(context.Background(), g, Params{Seed: 1}))
	bound := int(6*math.Log2(float64(g.N()))) + 8
	if d.NumColors > bound {
		t.Fatalf("colors = %d > %d", d.NumColors, bound)
	}
}

func TestClusterDiameter(t *testing.T) {
	g := gen.Cycle(2000)
	d := must(DecomposeCtx(context.Background(), g, Params{Seed: 2, Lambda: 0.5}))
	bound := int(8*math.Log(float64(g.N()))/0.5) + 1
	for _, cluster := range d.Clusters() {
		if len(cluster) == 0 {
			continue
		}
		if wd := g.WeakDiameter(cluster); wd == -1 || wd > bound {
			t.Fatalf("cluster weak diameter %d > %d", wd, bound)
		}
	}
}

func TestEveryVertexClustered(t *testing.T) {
	g := gen.GNP(300, 0.02, xrand.New(3))
	d := must(DecomposeCtx(context.Background(), g, Params{Seed: 3}))
	for v, c := range d.ClusterOf {
		if c < 0 {
			t.Fatalf("vertex %d unclustered", v)
		}
		if d.ColorOf[v] < 0 {
			t.Fatalf("vertex %d uncolored", v)
		}
	}
}

func TestClustersByColor(t *testing.T) {
	g := gen.Grid(10, 10)
	d := must(DecomposeCtx(context.Background(), g, Params{Seed: 4}))
	byColor := d.ClustersByColor()
	if len(byColor) != d.NumColors {
		t.Fatalf("byColor groups %d != colors %d", len(byColor), d.NumColors)
	}
	total := 0
	for _, ids := range byColor {
		total += len(ids)
	}
	if total != d.NumClusters {
		t.Fatalf("cluster ids by color %d != clusters %d", total, d.NumClusters)
	}
}

func TestDeterminism(t *testing.T) {
	g := gen.Cycle(300)
	d1 := must(DecomposeCtx(context.Background(), g, Params{Seed: 9}))
	d2 := must(DecomposeCtx(context.Background(), g, Params{Seed: 9}))
	for v := range d1.ClusterOf {
		if d1.ClusterOf[v] != d2.ClusterOf[v] || d1.ColorOf[v] != d2.ColorOf[v] {
			t.Fatal("nondeterministic")
		}
	}
}

// must returns v, panicking on err; the runs it wraps cannot be cancelled.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
