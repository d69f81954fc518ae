package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// referenceBuild is the sort-based Builder.Build the counting build
// replaced, kept as an oracle: normalize every edge to u < v, sort the edge
// list, drop duplicates, then fill and sort the adjacency lists.
func referenceBuild(n int, edges [][2]int32) *Graph {
	norm := make([][2]int32, 0, len(edges))
	for _, e := range edges {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		norm = append(norm, e)
	}
	slices.SortFunc(norm, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
	norm = slices.Compact(norm)
	deg := make([]int32, n)
	for _, e := range norm {
		deg[e[0]]++
		deg[e[1]]++
	}
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i]
	}
	adj := make([]int32, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, e := range norm {
		adj[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		adj[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(adj[offsets[v]:offsets[v+1]])
	}
	return &Graph{offsets: offsets, adj: adj, m: len(norm)}
}

// sameCSR fails the test unless got and want have identical offsets, adj
// and edge counts, and got's adjacency carries no spare capacity.
func sameCSR(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if !slices.Equal(got.offsets, want.offsets) {
		t.Fatalf("%s: offsets differ:\ngot  %v\nwant %v", label, got.offsets, want.offsets)
	}
	if !slices.Equal(got.adj, want.adj) {
		t.Fatalf("%s: adj differs:\ngot  %v\nwant %v", label, got.adj, want.adj)
	}
	if got.M() != want.M() {
		t.Fatalf("%s: M() = %d, want %d", label, got.M(), want.M())
	}
	if cap(got.adj) != len(got.adj) {
		t.Fatalf("%s: adj has spare capacity: len %d cap %d", label, len(got.adj), cap(got.adj))
	}
}

// TestBuildMatchesReference feeds random edge streams (duplicates in both
// orientations, self-loops, out-of-range endpoints, isolated vertices) to
// Build and to the sort-based oracle, including n = 0 and n = 1 and a
// builder reused after Build.
func TestBuildMatchesReference(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		if trial < 4 {
			n = trial % 2 // n = 0 and n = 1, twice each
		}
		b := NewBuilder(n)
		var kept [][2]int32
		add := func(u, v int) {
			b.AddEdge(u, v)
			if u != v && u >= 0 && v >= 0 && u < n && v < n {
				kept = append(kept, [2]int32{int32(u), int32(v)})
			}
		}
		stream := func(count int) {
			for i := 0; i < count; i++ {
				u := rng.Intn(n+4) - 2 // out of range at both ends
				v := rng.Intn(n+4) - 2
				switch rng.Intn(6) {
				case 0:
					v = u // self-loop
				case 1:
					if len(kept) > 0 { // repeat an earlier edge, either way round
						e := kept[rng.Intn(len(kept))]
						u, v = int(e[1]), int(e[0])
						if rng.Bernoulli(0.5) {
							u, v = v, u
						}
					}
				}
				add(u, v)
			}
		}
		// Sparse streams leave isolated vertices; dense ones repeat edges.
		stream(rng.Intn(3 * (n + 1)))
		first := b.Build()
		sameCSR(t, "first build", first, referenceBuild(n, kept))

		// Reuse: a second Build sees every edge added so far and leaves
		// the first graph untouched.
		snapOff := slices.Clone(first.offsets)
		snapAdj := slices.Clone(first.adj)
		stream(rng.Intn(2 * (n + 1)))
		sameCSR(t, "rebuild", b.Build(), referenceBuild(n, kept))
		if !slices.Equal(first.offsets, snapOff) || !slices.Equal(first.adj, snapAdj) {
			t.Fatal("AddEdge after Build changed an already-built graph")
		}
	}
}

// BenchmarkBuilderBuild builds a graph from a redundant edge stream shaped
// like a dominating-set primal graph: every closed neighbourhood of a
// random 5000-vertex graph of average degree 8 contributes a clique, so
// each edge arrives several times in both orientations.
func BenchmarkBuilderBuild(b *testing.B) {
	const n = 5000
	rng := xrand.New(3)
	base := NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		base.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	g := base.Build()
	var stream [][2]int32
	closed := make([]int32, 0, 32)
	for v := 0; v < n; v++ {
		closed = append(append(closed[:0], int32(v)), g.Neighbors(v)...)
		for i, x := range closed {
			for _, y := range closed[i+1:] {
				stream = append(stream, [2]int32{x, y})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb := NewBuilder(n)
		for _, e := range stream {
			bb.AddEdge(int(e[0]), int(e[1]))
		}
		_ = bb.Build()
	}
}

// TestFromCSRSymmetryMatchesNaive drops, adds and moves single adjacency
// entries of random graphs and checks that FromCSR's linear symmetry check
// accepts and rejects exactly what a per-entry reverse lookup does, naming
// the same first asymmetric entry.
func TestFromCSRSymmetryMatchesNaive(t *testing.T) {
	rng := xrand.New(23)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(9)
		b := NewBuilder(n)
		for i := 0; i < rng.Intn(3*n); i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		base := b.Build()
		lists := make([][]int32, n)
		for v := range lists {
			lists[v] = slices.Clone(base.Neighbors(v))
		}
		// Two toggles keep the total length even, so the symmetry check is
		// what decides.
		for toggles := 0; trial%4 != 0 && toggles < 2 && n > 1; {
			v, w := rng.Intn(n), int32(rng.Intn(n))
			if int(w) == v {
				continue
			}
			if i, found := slices.BinarySearch(lists[v], w); found {
				lists[v] = slices.Delete(lists[v], i, i+1)
			} else {
				lists[v] = slices.Insert(lists[v], i, w)
			}
			toggles++
		}
		offsets := make([]int32, n+1)
		var adj []int32
		for v, l := range lists {
			adj = append(adj, l...)
			offsets[v+1] = int32(len(adj))
		}
		var want error
		naive := &Graph{offsets: offsets, adj: adj}
		for v := 0; v < n && want == nil; v++ {
			for _, w := range lists[v] {
				if !slices.Contains(lists[w], int32(v)) {
					want = fmt.Errorf("graph: asymmetric edge %d->%d", v, w)
					break
				}
			}
		}
		_, err := FromCSR(offsets, adj)
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("trial %d (%v): FromCSR error %v, want %v", trial, naive, err, want)
		}
	}
}
