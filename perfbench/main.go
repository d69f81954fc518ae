// Command perfbench is the repository's end-to-end benchmark. It builds the
// serving stack in-process from seeded inputs (engine, server, store, WAL,
// cluster router), drives it over loopback HTTP with a closed-loop load
// generator that checks every answer, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics. BENCHMARK.json at the
// repository root lists both sets with their units and documents each
// workload.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// names and units; the package test keeps the two in step.
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"changli_ms", "ms"},
	{"packing_ms", "ms"},
	{"covering_ms", "ms"},
	{"packing_value", "count"},
	{"covering_value", "count"},
	{"live_heap_mb", "MB"},
}

// workload is one traffic mix against one topology.
type workload struct {
	name string
	topo topology
	plan func(p *plan, seed uint64)
}

var workloads = []workload{
	{"cold-solve", topoMemory, planColdSolve},
	{"hot-read", topoMemory, planHotRead},
	{"churn", topoDurable, planChurn},
	{"routed", topoRouted, planRouted},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "cold-solve | hot-read | churn | routed")
	seed := fs.Uint64("seed", 1, "seed for the inputs and the op streams")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, *seed, d, dir)
	} else {
		res, err = runWorkload(w, *seed, d, dir)
	}
	if err != nil {
		return err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value", name)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// A run times at least minSetups fresh bring-ups, and more, up to
// maxSetups, while their total stays under setupBudget seconds. setup_s is
// their median; the last one serves the timed phase.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2.0
)

// qualityCycles is how many cold-solve results of each ILP family
// packing_value and covering_value average: the first ones of the seeded
// schedule, so the values repeat exactly.
const qualityCycles = 6

// runWorkload is the untraced run: the end-to-end metrics.
func runWorkload(w workload, seed uint64, d time.Duration, dir string) (*result, error) {
	p, err := newInputs(seed)
	if err != nil {
		return nil, err
	}
	w.plan(p, seed)
	ys, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer ys.close()
	var sys *system
	var setups []float64
	var heap, spent float64
	var setupYS []int64
	for sys == nil {
		chunks, err := ys.burst(ysSetupChunks)
		if err != nil {
			return nil, err
		}
		setupYS = append(setupYS, chunks...)
		before := liveHeapMB()
		t0 := time.Now()
		s, err := bringUp(p, w.topo, false, filepath.Join(dir, fmt.Sprint(len(setups))))
		if err != nil {
			return nil, fmt.Errorf("bring-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d)
		spent += d
		if len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
			s.close()
			continue
		}
		sys = s
		heap = s.footprintMB() - before
	}
	defer sys.close()
	t, obsv, err := prepare(p, sys)
	if err != nil {
		return nil, err
	}
	t.ys = ys
	ops, _, clients := timedDrive(t, p.streams, d)
	res := &result{Metrics: map[string]metricValue{}}
	tally(res, p, sys, clients)

	// A client's op time is its loop less its yardstick chunks.
	var reads, writes, chunks []int64
	var fam [numFamilies][]int64
	busy := 0.0
	for _, cs := range clients {
		chunks = append(chunks, cs.ysNS...)
		busy += float64(cs.loopNS-cs.ysTotal) / 1e9 / float64(len(clients))
		for _, s := range cs.samples {
			if s.fam == famWrite {
				writes = append(writes, s.ns)
			} else {
				reads = append(reads, s.ns)
			}
			fam[s.fam] = append(fam[s.fam], s.ns)
		}
	}
	const ms = 1e6
	raw := map[string]float64{
		"setup_s":      medianF(setups),
		"ops_per_s":    float64(ops) / busy,
		"read_p50_ms":  quantile(reads, 0.50) / ms,
		"read_p90_ms":  quantile(reads, 0.90) / ms,
		"write_p50_ms": quantile(writes, 0.50) / ms,
		"changli_ms":   quantile(fam[famChangli], 0.5) / ms,
		"packing_ms":   quantile(fam[famPacking], 0.5) / ms,
		"covering_ms":  quantile(fam[famCovering], 0.5) / ms,
	}
	// Times are read at the yardstick's nominal host speed, setup_s at
	// that of the bring-ups, the rest at that of the timed phase. The
	// quality values and the heap are not times.
	k, ks := scaleOf(chunks), scaleOf(setupYS)
	for name, v := range raw {
		switch name {
		case "setup_s":
			v *= ks
		case "ops_per_s":
			v /= k
		default:
			v *= k
		}
		res.Metrics[name] = metricValue{v, unitOf(name)}
	}
	res.Metrics["packing_value"] = metricValue{mean(obsv.packing), "count"}
	res.Metrics["covering_value"] = metricValue{mean(obsv.covering), "count"}
	res.Metrics["live_heap_mb"] = metricValue{heap, "MB"}

	for f := family(0); f < numFamilies; f++ {
		if len(fam[f]) > 0 {
			fmt.Fprintf(os.Stderr, "%s p50 %.4g p99 %.4g ms (%d); ", familyNames[f], quantile(fam[f], 0.5)/ms, quantile(fam[f], 0.99)/ms, len(fam[f]))
		}
	}
	fmt.Fprintln(os.Stderr)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops in %.3gs of op time (%d reads, %d writes, %d yardstick chunks); setups %.3v\n",
		w.name, seed, ops, busy, len(reads), len(writes), len(chunks), setups)
	diag, _ := json.Marshal(map[string]any{"raw": raw, "chunk_us": quantile(chunks, 0.5) / 1e3, "setup_chunk_us": quantile(setupYS, 0.5) / 1e3})
	fmt.Fprintf(os.Stderr, "perfbench: unscaled %s\n", diag)
	return res, nil
}

func unitOf(name string) string {
	for _, m := range endToEndMetrics {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: metric " + name + " is not declared")
}

// prepare checks the bring-up's reference answers off the clock and builds
// the clients' target.
func prepare(p *plan, s *system) (*target, *observed, error) {
	t := newTarget(s, p)
	c := newChecker()
	o := &observed{}
	if p.warm {
		refs, err := references(p, s, c, o)
		if err != nil {
			return nil, nil, err
		}
		t.keyRefs = refs
	} else {
		var seen [numFamilies]int
		t.more = func() bool { return seen[famPacking] < qualityCycles || seen[famCovering] < qualityCycles }
		t.cold = func(k key, body []byte) error {
			seen[k.fam]++
			r, err := c.checkRun(k, p.graphs[k.role], body)
			if err == nil && seen[k.fam] <= qualityCycles {
				o.add(k.fam, r)
			}
			return err
		}
	}
	lc := newLeanClient()
	defer lc.hc.CloseIdleConnections()
	for _, q := range p.queries {
		status, body, err := lc.post(t.urls[roleBig][epQuery], q.body)
		if err != nil || status != http.StatusOK {
			return nil, nil, fmt.Errorf("query %s: status %d: %v", q.body, status, err)
		}
		if err := c.checkQuery(q, p.graphs[roleBig], body); err != nil {
			return nil, nil, fmt.Errorf("query %s: %w", q.body, err)
		}
		t.queryRefs = append(t.queryRefs, bytes.Clone(body))
	}
	return t, o, nil
}

// tally counts the clients' ops and failures, adds the failures the
// history check of the written graph finds, and reports the first few to
// stderr.
func tally(res *result, p *plan, s *system, clients []*clientStats) {
	var errs []string
	for _, cs := range clients {
		res.Attempted += cs.ops
		res.Failed += cs.failed
		errs = append(errs, cs.errs...)
	}
	log, err := s.deltaLog(p.mutated)
	if err != nil {
		res.Failed++
		errs = append(errs, err.Error())
	}
	f, e := history(p, log, s.fp0[p.mutated], p.mutated, clients)
	res.Failed += f
	errs = append(errs, e...)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	res.Correct = res.Failed == 0
}
