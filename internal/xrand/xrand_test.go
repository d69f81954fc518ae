package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split(1)
	c2 := r.Split(2)
	c1again := r.Split(1)
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Split is not deterministic for equal labels")
	}
	if c1.state == c2.state {
		t.Fatal("Split with different labels produced identical state")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a, b := New(9), New(9)
	_ = a.Split(5)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
}

func TestStreamPerVertex(t *testing.T) {
	s1 := Stream(3, 10, 0)
	s2 := Stream(3, 10, 0)
	s3 := Stream(3, 11, 0)
	if s1.Uint64() != s2.Uint64() {
		t.Fatal("Stream not reproducible")
	}
	if s1.state == s3.state {
		t.Fatal("different vertices got identical streams")
	}
}

// TestStreamIsSplit pins Stream's derivation: it is the by-value form of
// New(seed).Split(vertex+1, label+1), so every seeded stream draws the
// same numbers as the split it replaced.
func TestStreamIsSplit(t *testing.T) {
	for _, c := range []struct {
		seed   uint64
		vertex int
		label  uint64
	}{{0, 0, 0}, {3, 10, 0}, {1, 9999, 0x1dd}, {^uint64(0), 1 << 40, ^uint64(0)}} {
		got := Stream(c.seed, c.vertex, c.label)
		want := New(c.seed).Split(uint64(c.vertex)+1, c.label+1)
		for i := 0; i < 4; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("Stream(%d, %d, %#x) draw %d = %#x, want %#x", c.seed, c.vertex, c.label, i, g, w)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(17)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	if r.Intn(0) != 0 || r.Intn(-3) != 0 {
		t.Fatal("Intn should return 0 for non-positive n")
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(23)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for d, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("digit %d frequency %v, want ~0.1", d, frac)
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(31)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %v", frac)
	}
}

func TestExpMean(t *testing.T) {
	r := New(41)
	const lambda = 2.0
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(lambda)
		if v < 0 {
			t.Fatalf("negative exponential %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/lambda) > 0.01 {
		t.Fatalf("Exp(%v) mean = %v, want %v", lambda, mean, 1/lambda)
	}
}

func TestExpMemoryless(t *testing.T) {
	// Pr[X > a+b | X > a] should equal Pr[X > b]. Verify empirically.
	r := New(43)
	const lambda = 1.0
	const n = 400000
	var gtA, gtAB, gtB int
	for i := 0; i < n; i++ {
		v := r.Exp(lambda)
		if v > 1 {
			gtA++
			if v > 2 {
				gtAB++
			}
		}
		if r.Exp(lambda) > 1 {
			gtB++
		}
	}
	cond := float64(gtAB) / float64(gtA)
	uncond := float64(gtB) / n
	if math.Abs(cond-uncond) > 0.02 {
		t.Fatalf("memorylessness violated: cond=%v uncond=%v", cond, uncond)
	}
}

func TestExpDegenerate(t *testing.T) {
	r := New(47)
	if !math.IsInf(r.Exp(0), 1) {
		t.Fatal("Exp(0) should be +Inf")
	}
	if !math.IsInf(r.Exp(-1), 1) {
		t.Fatal("Exp(-1) should be +Inf")
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(53)
	const p = 0.25
	const n = 200000
	sum := 0
	for i := 0; i < n; i++ {
		g := r.Geometric(p)
		if g < 1 {
			t.Fatalf("geometric below support: %d", g)
		}
		sum += g
	}
	mean := float64(sum) / n
	if math.Abs(mean-1/p) > 0.05 {
		t.Fatalf("Geometric(%v) mean = %v, want %v", p, mean, 1/p)
	}
}

func TestGeometricEdge(t *testing.T) {
	r := New(59)
	if g := r.Geometric(1); g != 1 {
		t.Fatalf("Geometric(1) = %d, want 1", g)
	}
	if g := r.Geometric(1.5); g != 1 {
		t.Fatalf("Geometric(1.5) = %d, want 1", g)
	}
	if g := r.Geometric(0); g != math.MaxInt32 {
		t.Fatalf("Geometric(0) = %d, want MaxInt32", g)
	}
}

func TestGeometricTail(t *testing.T) {
	// Pr[X >= k] = (1-p)^(k-1); check at k = 5, p = 0.5 -> 1/16.
	r := New(61)
	const n = 200000
	count := 0
	for i := 0; i < n; i++ {
		if r.Geometric(0.5) >= 5 {
			count++
		}
	}
	frac := float64(count) / n
	if math.Abs(frac-1.0/16) > 0.005 {
		t.Fatalf("tail frequency %v, want ~%v", frac, 1.0/16)
	}
}

func TestShuffle(t *testing.T) {
	r := New(73)
	s := []string{"a", "b", "c", "d", "e"}
	Shuffle(r, s)
	seen := map[string]bool{}
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r RNG
	_ = r.Uint64() // must not panic
	_ = r.Float64()
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(0.5)
	}
}
