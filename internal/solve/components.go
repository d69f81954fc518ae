package solve

import (
	"slices"
	"sync"

	"repro/internal/graph"
)

// Components lists the vertices of each connected component of a graph in
// id order, and memoizes one local value per component. The packing and
// covering preparations use it to solve a component that many clusters
// share once, instead of once per cluster. It is safe for concurrent use.
type Components struct {
	of    []int32 // component id of each vertex
	start []int   // component c is verts[start[c]:start[c+1]]
	verts []int32
	memo  []componentValue
}

// componentValue is one component's memoized local value.
type componentValue struct {
	once  sync.Once
	w     int64
	exact bool
	err   error
}

// NewComponents computes g's connected components.
func NewComponents(g *graph.Graph) *Components {
	of, count := g.ComponentsAlive(nil)
	start := make([]int, count+1)
	for _, c := range of {
		start[c+1]++
	}
	for c := 0; c < count; c++ {
		start[c+1] += start[c]
	}
	verts := make([]int32, len(of))
	fill := slices.Clone(start[:count])
	for v, c := range of {
		verts[fill[c]] = int32(v)
		fill[c]++
	}
	return &Components{of: of, start: start, verts: verts, memo: make([]componentValue, count)}
}

// Of returns the component id of vertex v.
func (cs *Components) Of(v int32) int32 { return cs.of[v] }

// Members returns component c's vertices in id order.
func (cs *Components) Members(c int32) []int32 {
	return cs.verts[cs.start[c]:cs.start[c+1]]
}

// IsComponent reports whether a non-empty duplicate-free vertex set is
// exactly one connected component.
func (cs *Components) IsComponent(set []int32) bool {
	c := cs.of[set[0]]
	if len(set) != len(cs.Members(c)) {
		return false
	}
	for _, v := range set {
		if cs.of[v] != c {
			return false
		}
	}
	return true
}

// Value returns component c's local value and exactness, computed by
// value from the component's vertices in id order on the first call, so
// the result cannot depend on which caller reached the component first.
// Every call for one component must pass the same value function.
func (cs *Components) Value(c int32, value func(verts []int32) (int64, bool, error)) (int64, bool, error) {
	m := &cs.memo[c]
	m.once.Do(func() {
		m.w, m.exact, m.err = value(cs.Members(c))
	})
	return m.w, m.exact, m.err
}
