// Package stats provides the statistical utilities used by the experiment
// harness and by the tests that empirically verify the paper's
// concentration lemmas (Appendix A): summary statistics over trial runs,
// the Chernoff upper-tail bound of Lemma A.1, the geometric-sum tail of
// Lemma A.2, and failure-rate estimates with their confidence intervals.
package stats

import (
	"math"
	"sort"
)

// Summary holds order statistics of a sample.
type Summary struct {
	N                int
	Mean, Min, Max   float64
	P50, P90, P95    float64
	Variance, StdDev float64
}

// Summarize computes summary statistics; an empty sample yields zeros.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.P50 = Quantile(sorted, 0.50)
	s.P90 = Quantile(sorted, 0.90)
	s.P95 = Quantile(sorted, 0.95)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(len(sorted))
	var ss float64
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	if len(sorted) > 1 {
		s.Variance = ss / float64(len(sorted)-1)
	}
	s.StdDev = math.Sqrt(s.Variance)
	return s
}

// Quantile returns the q-th quantile of a sorted sample via linear
// interpolation; q is clamped to [0, 1].
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ChernoffUpper is the Lemma A.1 upper-tail bound for a sum of independent
// 0-1 variables with mean mu: Pr[X > (1+delta) mu] <= exp(-delta² mu /
// (2+delta)), for delta >= 0.
func ChernoffUpper(mu, delta float64) float64 {
	if delta < 0 || mu <= 0 {
		return 1
	}
	return math.Exp(-delta * delta * mu / (2 + delta))
}

// GeometricSumTail is the Lemma A.2 bound for a sum X of n independent
// Geometric(p) variables with mean mu = n/p:
// Pr[X > mu + delta·n] <= exp(-p² delta n / 6), for delta > 1/p - 1.
func GeometricSumTail(n int, p, delta float64) float64 {
	if n <= 0 || p <= 0 || p > 1 || delta <= 1/p-1 {
		return 1
	}
	return math.Exp(-p * p * delta * float64(n) / 6)
}

// FailureRate returns the fraction of trials where pred holds — used by the
// whp-vs-expectation experiments (E2/E3) to estimate failure probabilities.
func FailureRate(trials int, pred func(trial int) bool) float64 {
	if trials <= 0 {
		return 0
	}
	fails := 0
	for i := 0; i < trials; i++ {
		if pred(i) {
			fails++
		}
	}
	return float64(fails) / float64(trials)
}

// WilsonInterval returns the 95% Wilson score interval for a binomial
// proportion observed as successes/trials; useful for reporting empirical
// failure probabilities with honest uncertainty.
func WilsonInterval(successes, trials int) (lo, hi float64) {
	if trials <= 0 {
		return 0, 1
	}
	const z = 1.96
	n := float64(trials)
	p := float64(successes) / n
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / denom
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Ints converts an int sample to float64 for Summarize.
func Ints(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// LogLogSlope fits the least-squares slope of log(y) against log(x) —
// the exponent estimator used by the round-scaling experiments (E6/E7):
// if y ~ x^alpha the returned slope approximates alpha. Points with
// nonpositive coordinates are skipped; fewer than two usable points yield 0.
func LogLogSlope(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	n := float64(len(lx))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / denom
}
