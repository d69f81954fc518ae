package main

import (
	"bufio"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveHeapMB is the heap left after forced collections (two: the first
// only moves sync.Pool contents to their victim caches).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// histDelta is what a cumulative histogram recorded between two snapshots.
func histDelta(after, before obs.HistSnapshot) obs.HistSnapshot {
	d := after
	for i := range d.Counts {
		d.Counts[i] -= before.Counts[i]
	}
	d.Count -= before.Count
	d.Sum -= before.Sum
	return d
}

// promScrape is a parsed Prometheus text exposition: sample name with its
// label set, as written, to value.
type promScrape map[string]float64

func parseProm(text string) promScrape {
	out := promScrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// since is what each sample gained after the earlier scrape.
func (p promScrape) since(before promScrape) promScrape {
	d := promScrape{}
	for k, v := range p {
		d[k] = v - before[k]
	}
	return d
}

// bucketQuantile reads the q-quantile of a histogram family off its
// cumulative buckets: the upper bound of the first bucket that reaches
// rank q, in the family's unit.
func (p promScrape) bucketQuantile(name string, q float64) float64 {
	count := p[name+"_count"]
	if count == 0 {
		return 0
	}
	best := math.Inf(1)
	prefix := name + `_bucket{le="`
	for k, cum := range p {
		le, ok := strings.CutPrefix(k, prefix)
		if !ok || cum < q*count {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64); err == nil && v < best {
			best = v
		}
	}
	return best
}
