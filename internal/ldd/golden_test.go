package ldd

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/xrand"
)

// goldenInputs are the seeded graphs the decomposition hashes are pinned
// on. Both have more than enParShiftMin vertices, so Workers 4 draws the
// shifts on the worker pool.
func goldenInputs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.GNP(5000, 8.0/4999, xrand.New(11))},
		{"grid", gen.Grid(60, 70)},
	}
}

// goldenAlive kills about a fifth of the vertices, seeded.
func goldenAlive(n int) []bool {
	rng := xrand.New(13)
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = rng.Float64() >= 0.2
	}
	return alive
}

// hashInt32s folds a list of int32 slices into an FNV-64a digest, with a
// length prefix per slice so boundaries count.
func hashInt32s(lists ...[]int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, l := range lists {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(l)))
		h.Write(buf[:])
		for _, x := range l {
			binary.LittleEndian.PutUint32(buf[:], uint32(x))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestGoldenDecompositions pins ElkinNeiman, MPX and SparseCover outputs on
// seeded GNP and grid inputs, with and without an alive mask. The hashes
// were recorded with the binary-heap label search, and every worker count
// must reproduce them.
func TestGoldenDecompositions(t *testing.T) {
	want := map[string]string{
		"en/gnp/all":       "2f7480a0311bc43b clusters=56 rounds=23",
		"en/gnp/alive":     "078e10e067fa0538 clusters=64 rounds=23",
		"en/grid/all":      "41dac578e556229f clusters=571 rounds=23",
		"en/grid/alive":    "7d32e14756fb2838 clusters=625 rounds=23",
		"mpx/gnp":          "8e4cb2218d36bb5f 0933e05477a057ea clusters=80 cut=10369 rounds=35",
		"mpx/grid":         "2d31fe4636dc7a3a b7cb0bc6da7b1966 clusters=1161 cut=4263 rounds=34",
		"cover/gnp/all":    "09bc40ef836c63af 6f2b42eea5516807 clusters=287 rounds=23",
		"cover/gnp/alive":  "eab968d4a3f2b180 4d577b08d376cf97 clusters=391 rounds=23",
		"cover/grid/all":   "052942e61a567d59 8b75f93a23e4aeb8 clusters=3467 rounds=23",
		"cover/grid/alive": "71283437862bdb9c 814902f27d1f59db clusters=2888 rounds=23",
	}
	got := make(map[string]string)
	for _, in := range goldenInputs() {
		for _, workers := range []int{1, 4} {
			record := func(key, val string) {
				if prev, ok := got[key]; ok && prev != val {
					t.Fatalf("%s: workers %d gave %q, workers 1 gave %q", key, workers, val, prev)
				}
				got[key] = val
			}
			for _, mask := range []string{"all", "alive"} {
				var alive []bool
				if mask == "alive" {
					alive = goldenAlive(in.g.N())
				}
				d := ElkinNeiman(in.g, alive, ENParams{Lambda: 1.5, Seed: 5, Workers: workers})
				record("en/"+in.name+"/"+mask, fmt.Sprintf("%016x clusters=%d rounds=%d",
					hashInt32s(d.ClusterOf), d.NumClusters, d.Rounds))
				c := SparseCover(in.g, alive, ENParams{Lambda: 1.5, Seed: 6, Workers: workers})
				record("cover/"+in.name+"/"+mask, fmt.Sprintf("%016x %016x clusters=%d rounds=%d",
					hashInt32s(c.Clusters...), hashInt32s(c.MemberOf...), len(c.Clusters), c.Rounds))
			}
			m := MPX(in.g, ENParams{Lambda: 1, Seed: 7, Workers: workers})
			cut := make([]int32, 0, 2*len(m.CutEdges))
			for _, e := range m.CutEdges {
				cut = append(cut, int32(e[0]), int32(e[1]))
			}
			record("mpx/"+in.name, fmt.Sprintf("%016x %016x clusters=%d cut=%d rounds=%d",
				hashInt32s(m.ClusterOf), hashInt32s(cut), m.NumClusters, len(m.CutEdges), m.Rounds))
		}
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: got %q, want %q", key, got[key], w)
		}
	}
}
