package stats

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Variance-2.5) > 1e-9 {
		t.Fatalf("variance = %v", s.Variance)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatal("empty summary nonzero")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 10, 20, 30, 40}
	if q := Quantile(sorted, 0.5); q != 20 {
		t.Fatalf("median = %v", q)
	}
	if q := Quantile(sorted, 0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(sorted, 1); q != 40 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(sorted, 0.25); q != 10 {
		t.Fatalf("q25 = %v", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Fatal("nil quantile")
	}
}

// TestChernoffEmpirical verifies Lemma A.1 by simulation: the empirical
// upper tail of a Binomial(n, p) must not exceed the bound.
func TestChernoffEmpirical(t *testing.T) {
	rng := xrand.New(1)
	const n, p, trials = 500, 0.1, 4000
	mu := float64(n) * p
	for _, delta := range []float64{0.3, 0.5, 1.0} {
		threshold := (1 + delta) * mu
		exceeded := 0
		for trial := 0; trial < trials; trial++ {
			x := 0
			for i := 0; i < n; i++ {
				if rng.Bernoulli(p) {
					x++
				}
			}
			if float64(x) > threshold {
				exceeded++
			}
		}
		emp := float64(exceeded) / trials
		bound := ChernoffUpper(mu, delta)
		// Allow small-sample noise: empirical must not exceed bound by more
		// than a 2-sigma binomial fluctuation.
		slack := 2 * math.Sqrt(bound*(1-bound)/trials)
		if emp > bound+slack+0.01 {
			t.Fatalf("delta=%v: empirical %v > bound %v", delta, emp, bound)
		}
	}
}

func TestChernoffDegenerate(t *testing.T) {
	if ChernoffUpper(-1, 0.5) != 1 || ChernoffUpper(10, -0.5) != 1 {
		t.Fatal("degenerate Chernoff should return 1")
	}
}

// TestGeometricSumTailEmpirical verifies Lemma A.2 by simulation.
func TestGeometricSumTailEmpirical(t *testing.T) {
	rng := xrand.New(3)
	const n, trials = 200, 3000
	p := 0.5
	mu := float64(n) / p
	delta := 1.5 // > 1/p - 1 = 1
	threshold := mu + delta*float64(n)
	exceeded := 0
	for trial := 0; trial < trials; trial++ {
		sum := 0
		for i := 0; i < n; i++ {
			sum += rng.Geometric(p)
		}
		if float64(sum) > threshold {
			exceeded++
		}
	}
	emp := float64(exceeded) / trials
	bound := GeometricSumTail(n, p, delta)
	if emp > bound+0.01 {
		t.Fatalf("empirical geometric tail %v > bound %v", emp, bound)
	}
	// Degenerate parameter ranges.
	if GeometricSumTail(0, 0.5, 2) != 1 || GeometricSumTail(10, 0.5, 0.5) != 1 {
		t.Fatal("degenerate geometric tail should return 1")
	}
}

func TestFailureRate(t *testing.T) {
	rate := FailureRate(10, func(i int) bool { return i%2 == 0 })
	if rate != 0.5 {
		t.Fatalf("rate = %v", rate)
	}
	if FailureRate(0, nil) != 0 {
		t.Fatal("zero trials")
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("interval [%v, %v] should bracket 0.5", lo, hi)
	}
	if lo < 0.38 || hi > 0.62 {
		t.Fatalf("interval [%v, %v] too wide for n=100", lo, hi)
	}
	lo, hi = WilsonInterval(0, 100)
	if lo != 0 || hi < 0.01 || hi > 0.06 {
		t.Fatalf("zero-success interval [%v, %v]", lo, hi)
	}
	if lo, hi = WilsonInterval(0, 0); lo != 0 || hi != 1 {
		t.Fatal("no-trials interval should be [0,1]")
	}
}

func TestInts(t *testing.T) {
	out := Ints([]int{1, 2, 3})
	if len(out) != 3 || out[2] != 3 {
		t.Fatalf("Ints = %v", out)
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = x^2 exactly.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * x
	}
	if slope := LogLogSlope(xs, ys); math.Abs(slope-2) > 1e-9 {
		t.Fatalf("slope = %v, want 2", slope)
	}
	// Constant y: slope 0.
	if slope := LogLogSlope(xs, []float64{5, 5, 5, 5, 5}); math.Abs(slope) > 1e-9 {
		t.Fatalf("constant slope = %v", slope)
	}
	// Degenerate inputs.
	if LogLogSlope(nil, nil) != 0 {
		t.Fatal("nil slope")
	}
	if LogLogSlope([]float64{1}, []float64{1}) != 0 {
		t.Fatal("single-point slope")
	}
	if LogLogSlope([]float64{-1, 0}, []float64{1, 2}) != 0 {
		t.Fatal("nonpositive points should be skipped")
	}
}
