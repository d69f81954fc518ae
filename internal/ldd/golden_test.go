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

// goldenWeights are seeded vertex weights in 0..8, zeros included, so the
// weighted run both skips zero-weight centres and weighs its cut layers.
func goldenWeights(n int) []int64 {
	rng := xrand.New(17)
	w := make([]int64, n)
	for v := range w {
		w[v] = int64(rng.Intn(9))
	}
	return w
}

// TestGoldenChangLi pins ChangLi (with and without Phase 2), the weighted
// variant (seeded and nil weights) and Blackbox (both bases) on the golden
// inputs. Scales 0.05 and 0.002 give one cluster per component on both
// inputs. The grid's diameter (128) admits real carves at scale 0.0002, so
// its carve-scale rows depend on every sampling stream; the GNP's (about 6)
// admits none at any scale, and its mid-scale n_v estimate costs O(n·m), so
// its weighted rows run at 0.05. Every worker count must reproduce the
// hashes.
func TestGoldenChangLi(t *testing.T) {
	want := map[string]string{
		"blackbox/gnp/en=false":          "971e4fd3f392dabf clusters=3 rounds=27735",
		"blackbox/gnp/en=true":           "6d394a62a6f7d3ef clusters=3 rounds=141",
		"blackbox/grid/en=false":         "78c4b7d38825e46d clusters=1 rounds=51542",
		"blackbox/grid/en=true":          "89a5c5f8a7580db3 clusters=115 rounds=548",
		"changli/gnp/0.002/skip=false":   "971e4fd3f392dabf clusters=3 rounds=4096",
		"changli/gnp/0.002/skip=true":    "971e4fd3f392dabf clusters=3 rounds=8356",
		"changli/gnp/0.05/skip=false":    "971e4fd3f392dabf clusters=3 rounds=24028",
		"changli/gnp/0.05/skip=true":     "971e4fd3f392dabf clusters=3 rounds=61501",
		"changli/grid/0.0002/skip=false": "8ef3c81910a91999 clusters=86 rounds=1409",
		"changli/grid/0.0002/skip=true":  "78c4b7d38825e46d clusters=1 rounds=2118",
		"changli/grid/0.002/skip=false":  "78c4b7d38825e46d clusters=1 rounds=3999",
		"changli/grid/0.002/skip=true":   "78c4b7d38825e46d clusters=1 rounds=7488",
		"changli/grid/0.05/skip=false":   "78c4b7d38825e46d clusters=1 rounds=22836",
		"changli/grid/0.05/skip=true":    "78c4b7d38825e46d clusters=1 rounds=59553",
		"weighted/gnp/nil":               "971e4fd3f392dabf clusters=3 rounds=24028",
		"weighted/gnp/seeded":            "971e4fd3f392dabf clusters=3 rounds=24028",
		"weighted/grid/nil":              "8ef3c81910a91999 clusters=86 rounds=1409",
		"weighted/grid/seeded":           "fdf4e9243722dcc7 clusters=128 rounds=1409",
	}
	carveScale := map[string]float64{"gnp": 0.05, "grid": 0.0002}
	got := make(map[string]string)
	for _, in := range goldenInputs() {
		w := goldenWeights(in.g.N())
		for _, workers := range []int{1, 4} {
			record := func(key string, d *Decomposition) {
				val := fmt.Sprintf("%016x clusters=%d rounds=%d", hashInt32s(d.ClusterOf), d.NumClusters, d.Rounds)
				if prev, ok := got[key]; ok && prev != val {
					t.Fatalf("%s: workers %d gave %q, workers 1 gave %q", key, workers, val, prev)
				}
				got[key] = val
			}
			scales := []float64{0.05, 0.002}
			if s := carveScale[in.name]; s < 0.002 {
				scales = append(scales, s)
			}
			for _, scale := range scales {
				for _, skip := range []bool{false, true} {
					p := Params{Epsilon: 0.3, Seed: 3, Scale: scale, SkipPhase2: skip, Workers: workers}
					record(fmt.Sprintf("changli/%s/%g/skip=%v", in.name, scale, skip), ChangLi(in.g, p))
				}
			}
			p := Params{Epsilon: 0.3, Seed: 3, Scale: carveScale[in.name], Workers: workers}
			record("weighted/"+in.name+"/seeded", ChangLiWeighted(in.g, w, p))
			record("weighted/"+in.name+"/nil", ChangLiWeighted(in.g, nil, p))
		}
		// Blackbox has no worker knob. Its power graph G^k has k = ⌈2/ε⌉;
		// on the GNP input G^4 is nearly complete, so it runs at ε = 1.
		eps := 0.5
		if in.name == "gnp" {
			eps = 1
		}
		for _, en := range []bool{false, true} {
			d := Blackbox(in.g, BlackboxParams{Epsilon: eps, Seed: 4, Scale: 0.05, UseElkinNeimanBase: en})
			got[fmt.Sprintf("blackbox/%s/en=%v", in.name, en)] = fmt.Sprintf("%016x clusters=%d rounds=%d",
				hashInt32s(d.ClusterOf), d.NumClusters, d.Rounds)
		}
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: got %q, want %q", key, got[key], w)
		}
	}
}
