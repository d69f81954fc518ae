package solve

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// TestComponentsMembersAndValueOnce checks the id-ordered member lists and
// that concurrent Value calls solve each component exactly once, from its
// member list, and all see that one result.
func TestComponentsMembersAndValueOnce(t *testing.T) {
	// Components {0, 3, 5}, {1, 4}, {2} and {6}.
	g := graph.FromEdges(7, [][2]int{{5, 3}, {3, 0}, {4, 1}})
	cs := NewComponents(g)
	want := map[int32][]int32{0: {0, 3, 5}, 1: {1, 4}, 2: {2}, 6: {6}}
	for v, members := range want {
		if got := cs.Members(cs.Of(v)); !slices.Equal(got, members) {
			t.Fatalf("component of %d: got %v, want %v", v, got, members)
		}
		if !cs.IsComponent(members) {
			t.Fatalf("%v is a component", members)
		}
	}
	if cs.IsComponent([]int32{0, 3}) || cs.IsComponent([]int32{0, 3, 4}) {
		t.Fatal("a proper subset or a mixed set is not a component")
	}
	var calls atomic.Int32
	value := func(verts []int32) (int64, bool, error) {
		calls.Add(1)
		var sum int64
		for _, v := range verts {
			sum = 10*sum + int64(v)
		}
		return sum, len(verts) > 1, nil
	}
	c := cs.Of(5)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w, ex, err := cs.Value(c, value); w != 35 || !ex || err != nil {
				t.Errorf("Value = %d, %v, %v; want 35, true, nil", w, ex, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("value ran %d times, want 1", n)
	}
}
