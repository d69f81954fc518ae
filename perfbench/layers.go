package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro/internal/algo"
	"repro/internal/covering"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ldd"
	"repro/internal/obs"
	"repro/internal/packing"
	"repro/internal/problems"
	"repro/internal/store"
)

// perLayerMetrics is what the traced run prints. BENCHMARK.json names, for
// each, the end-to-end metric and workload it should move. A layer a
// workload does not exercise reads 0 there.
var perLayerMetrics = []metricDef{
	{"graph.parbfs_ms", "ms"},
	{"ldd.changli_ms", "ms"},
	{"ldd.estimate_ms", "ms"},
	{"ldd.carve_ms", "ms"},
	{"ldd.phase3_ms", "ms"},
	{"ldd.assemble_ms", "ms"},
	{"ldd.rounds", "count"},
	{"packing.solve_ms", "ms"},
	{"packing.rounds", "count"},
	{"covering.solve_ms", "ms"},
	{"covering.rounds", "count"},
	{"covering.regions", "count"},
	{"algo.self_ms", "ms"},
	{"engine.miss_self_ms", "ms"},
	{"engine.hit_p50_us", "us"},
	{"engine.hit_ratio", "ratio"},
	{"engine.repair_ratio", "ratio"},
	{"engine.fallbacks", "count"},
	{"engine.repair_p50_ms", "ms"},
	{"engine.repair_p99_ms", "ms"},
	{"engine.compute_p50_ms", "ms"},
	{"store.delta_bytes_per_write", "B"},
	{"wal.append_p50_us", "us"},
	{"wal.fsync_p50_us", "us"},
	{"wal.fsync_p99_us", "us"},
	{"wal.batch_mean", "count"},
	{"server.handler_p50_us", "us"},
	{"server.self_p50_us", "us"},
	{"server.resp_kb_per_read", "KB"},
	{"server.shed", "count"},
	{"cluster.read_self_p50_us", "us"},
	{"cluster.write_self_p50_us", "us"},
	{"cluster.push_p50_us", "us"},
	{"cluster.hedged_per_kread", "count"},
	{"cluster.hedge_win_ratio", "ratio"},
	{"cluster.backend_reads_per_read", "ratio"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.heap_growth_mb", "MB"},
	{"client.self_frac", "ratio"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
	{"ladder.changli.total_ms", "ms"},
	{"ladder.changli.http_self_ms", "ms"},
	{"ladder.changli.engine_self_ms", "ms"},
	{"ladder.changli.algo_self_ms", "ms"},
	{"ladder.packing.total_ms", "ms"},
	{"ladder.packing.http_self_ms", "ms"},
	{"ladder.packing.engine_self_ms", "ms"},
	{"ladder.packing.algo_self_ms", "ms"},
	{"ladder.covering.total_ms", "ms"},
	{"ladder.covering.http_self_ms", "ms"},
	{"ladder.covering.engine_self_ms", "ms"},
	{"ladder.covering.algo_self_ms", "ms"},
}

// runTraced measures the per-layer metrics. It runs the workload twice:
// first for half the time on the plain stack (the reference for the
// tracing overhead), then on a stack whose servers carry a tracer and
// whose handlers are wrapped in timers. On cold-solve the second phase
// replays each op, right after its HTTP round trip, one rung down at a
// time (see ladder), so it runs for twice the time to collect enough ops.
func runTraced(w workload, seed uint64, d time.Duration, dir string) (*result, error) {
	p, err := newInputs(seed)
	if err != nil {
		return nil, err
	}
	w.plan(p, seed)
	res := &result{Metrics: map[string]metricValue{}}
	set := func(name string, v float64) { res.Metrics[name] = metricValue{v, unitOf(name)} }
	for _, m := range perLayerMetrics {
		set(m.name, 0)
	}

	plain, err := bringUp(p, w.topo, false, filepath.Join(dir, "plain"))
	if err != nil {
		return nil, fmt.Errorf("bring-up: %w", err)
	}
	t, _, err := prepare(p, plain)
	if err != nil {
		plain.close()
		return nil, err
	}
	heap0 := liveHeapMB()
	rp := startRuntimeProbe()
	ops, elapsed, clients := timedDrive(t, p.streams, d/2)
	rp.finish(set, clients)
	plainOps := float64(ops) / elapsed.Seconds()
	tally(res, p, plain, clients)
	clients = nil
	set("runtime.heap_growth_mb", liveHeapMB()-heap0)
	plain.close()

	sys, err := bringUp(p, w.topo, true, filepath.Join(dir, "traced"))
	if err != nil {
		return nil, fmt.Errorf("bring-up: %w", err)
	}
	defer sys.close()
	t, obsv, err := prepare(p, sys)
	if err != nil {
		return nil, err
	}
	var lad *ladder
	traced := d / 2
	if !p.warm {
		lad = newLadder(p)
		defer lad.close()
		// One client: the hook runs on its goroutine only.
		t.afterOp = func(o *op, ns int64) {
			if o.kind == opRun {
				lad.replay(o.idx, ns)
			}
		}
		traced = 2 * d
	}
	pr, err := startProbe(sys)
	if err != nil {
		return nil, err
	}
	ops, elapsed, clients = timedDrive(t, p.streams, traced)
	if err := pr.finish(set, clients); err != nil {
		return nil, err
	}
	tally(res, p, sys, clients)
	if lad != nil {
		if lad.err != nil {
			return nil, lad.err
		}
		elapsed -= lad.spent
		lad.report(set)
	}
	tracedOps := float64(ops) / elapsed.Seconds()

	set("trace.untraced_ops_per_s", plainOps)
	set("trace.traced_ops_per_s", tracedOps)
	set("trace.overhead_frac", 1-tracedOps/plainOps)
	set("ldd.rounds", mean(obsv.rounds[famChangli]))
	set("packing.rounds", mean(obsv.rounds[famPacking]))
	set("covering.rounds", mean(obsv.rounds[famCovering]))
	set("covering.regions", mean(obsv.regions))
	lddPhases(sys, set)
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) { // the workload never produced a sample
			res.Metrics[name] = metricValue{0, m.Unit}
		}
	}
	return res, nil
}

// timedDrive runs the clients after a collection.
func timedDrive(t *target, streams [][]op, d time.Duration) (int, time.Duration, []*clientStats) {
	runtime.GC()
	start := time.Now()
	clients := drive(t, streams, d)
	elapsed := time.Since(start)
	ops := 0
	for _, cs := range clients {
		ops += cs.ops
	}
	return ops, elapsed, clients
}

// probe holds the counters a traced phase starts from.
type probe struct {
	s                    *system
	eng                  []engine.Stats
	hit, repair, compute obs.HistSnapshot
	walAppend, walFsync  obs.HistSnapshot
	walBatch             obs.HistSnapshot
	store                store.Stats
	shed                 float64
	router               promScrape
}

func startProbe(s *system) (*probe, error) {
	pr := &probe{s: s}
	for _, n := range s.nodes {
		n.timed.reset()
	}
	if s.rtimed != nil {
		s.rtimed.reset()
	}
	var err error
	pr.eng, pr.hit, pr.repair, pr.compute = engineCounters(s)
	if s.wal != nil {
		pr.walAppend, pr.walFsync, pr.walBatch = s.wal.Append.Snapshot(), s.wal.Fsync.Snapshot(), s.wal.Batch.Snapshot()
		pr.store = s.durable.Stats()
	}
	if pr.shed, err = shedTotal(s); err != nil {
		return nil, err
	}
	if s.router != nil {
		text, err := s.get(s.base + "/metrics")
		if err != nil {
			return nil, err
		}
		pr.router = parseProm(text)
	}
	return pr, nil
}

// finish turns the counters' movement over the traced phase into
// per-layer metrics.
func (pr *probe) finish(set func(string, float64), clients []*clientStats) error {
	s := pr.s
	reads := 0
	var bytes int64
	for _, cs := range clients {
		reads += cs.reads
		bytes += cs.bytes
	}
	set("server.resp_kb_per_read", float64(bytes)/1024/float64(reads))

	stats, hit, repair, compute := engineCounters(s)
	var hits, misses, repairs, fallbacks uint64
	for i, st := range stats {
		hits += st.Hits - pr.eng[i].Hits
		misses += st.Misses - pr.eng[i].Misses
		repairs += st.RepairHits - pr.eng[i].RepairHits
		fallbacks += st.RepairFallbacks - pr.eng[i].RepairFallbacks
	}
	hit, repair, compute = histDelta(hit, pr.hit), histDelta(repair, pr.repair), histDelta(compute, pr.compute)
	hitUS := float64(hit.Quantile(0.5)) / 1e3
	set("engine.hit_p50_us", hitUS)
	set("engine.hit_ratio", ratio(hits, hits+misses))
	set("engine.repair_ratio", ratio(repairs, misses))
	set("engine.fallbacks", float64(fallbacks))
	set("engine.repair_p50_ms", float64(repair.Quantile(0.5))/1e6)
	set("engine.repair_p99_ms", float64(repair.Quantile(0.99))/1e6)
	set("engine.compute_p50_ms", float64(compute.Quantile(0.5))/1e6)

	if s.wal != nil {
		st := s.durable.Stats()
		writes := (st.Adds + st.Dels) - (pr.store.Adds + pr.store.Dels)
		set("store.delta_bytes_per_write", ratio(uint64(st.DeltaBytes-pr.store.DeltaBytes), writes))
		app := histDelta(s.wal.Append.Snapshot(), pr.walAppend)
		fs := histDelta(s.wal.Fsync.Snapshot(), pr.walFsync)
		batch := histDelta(s.wal.Batch.Snapshot(), pr.walBatch)
		set("wal.append_p50_us", float64(app.Quantile(0.5))/1e3)
		set("wal.fsync_p50_us", float64(fs.Quantile(0.5))/1e3)
		set("wal.fsync_p99_us", float64(fs.Quantile(0.99))/1e3)
		set("wal.batch_mean", batch.Mean())
	}

	var backendReads, backendWrites []int64
	for _, n := range s.nodes {
		backendReads = append(backendReads, n.timed.samples(classRead)...)
		backendWrites = append(backendWrites, n.timed.samples(classWrite)...)
	}
	handlerUS := quantile(backendReads, 0.5) / 1e3
	set("server.handler_p50_us", handlerUS)
	if hit.Count > 0 { // a hit workload: the handler's own share of a hit
		set("server.self_p50_us", handlerUS-hitUS)
	}
	shed, err := shedTotal(s)
	if err != nil {
		return err
	}
	set("server.shed", shed-pr.shed)

	if s.router != nil {
		text, err := s.get(s.base + "/metrics")
		if err != nil {
			return err
		}
		after := parseProm(text)
		delta := func(name string) float64 { return after[name] - pr.router[name] }
		routed := delta("repro_cluster_reads_total")
		hedged := delta("repro_cluster_hedged_requests_total")
		routerReads := s.rtimed.samples(classRead)
		routerWrites := s.rtimed.samples(classWrite)
		set("cluster.read_self_p50_us", (quantile(routerReads, 0.5)-quantile(backendReads, 0.5))/1e3)
		set("cluster.write_self_p50_us", (quantile(routerWrites, 0.5)-quantile(backendWrites, 0.5))/1e3)
		set("cluster.push_p50_us", after.since(pr.router).bucketQuantile("repro_cluster_replication_push_seconds", 0.5)*1e6)
		set("cluster.hedged_per_kread", 1000*hedged/routed)
		if hedged > 0 {
			set("cluster.hedge_win_ratio", delta("repro_cluster_hedge_wins_total")/hedged)
		}
		set("cluster.backend_reads_per_read", float64(len(backendReads))/routed)
	}
	return nil
}

// runtimeProbe holds the process counters the plain phase starts from:
// the runtime and client metrics describe the stack without tracing.
type runtimeProbe struct {
	alloc           uint64
	cpu             time.Duration
	gcCPU, totalCPU float64
}

func startRuntimeProbe() *runtimeProbe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rp := &runtimeProbe{alloc: ms.TotalAlloc, cpu: processCPU()}
	rp.gcCPU, rp.totalCPU = cpuClasses()
	return rp
}

func (rp *runtimeProbe) finish(set func(string, float64), clients []*clientStats) {
	ops := 0
	var rt, loop int64
	for _, cs := range clients {
		ops += cs.ops
		rt += cs.rtNS
		loop += cs.loopNS
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, total := cpuClasses()
	set("runtime.alloc_kb_per_op", float64(ms.TotalAlloc-rp.alloc)/1024/float64(ops))
	set("runtime.gc_cpu_frac", (gc-rp.gcCPU)/(total-rp.totalCPU))
	set("runtime.cpu_ms_per_op", float64(processCPU()-rp.cpu)/1e6/float64(ops))
	set("client.self_frac", 1-float64(rt)/float64(loop))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// engineCounters sums every backend engine's counters and histograms.
func engineCounters(s *system) (stats []engine.Stats, hit, repair, compute obs.HistSnapshot) {
	for _, n := range s.nodes {
		stats = append(stats, n.eng.Stats())
		m := n.eng.Metrics()
		h, r, c := m.Hit.Snapshot(), m.Repair.Snapshot(), m.Compute.Snapshot()
		hit.Merge(&h)
		repair.Merge(&r)
		compute.Merge(&c)
	}
	return stats, hit, repair, compute
}

// shedTotal sums the servers' shed counters off their /metrics.
func shedTotal(s *system) (float64, error) {
	total := 0.0
	for _, n := range s.nodes {
		text, err := s.get(n.base + "/metrics")
		if err != nil {
			return 0, err
		}
		total += parseProm(text)["repro_server_shed_total"]
	}
	return total, nil
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuClasses reads the runtime's estimate of GC CPU and total CPU seconds.
func cpuClasses() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// lddPhases reads the changli phase times the servers' tracers recorded
// and reports each phase's median over the traced computations.
func lddPhases(s *system, set func(string, float64)) {
	var estimate, carve, phase3, assemble []int64
	for _, n := range s.nodes {
		for _, tr := range n.tracer.Recent(0) {
			if tr.Algo != "changli" {
				continue
			}
			var c int64
			seen := false
			for _, ph := range tr.Phases {
				switch {
				case ph.Name == "estimate":
					estimate = append(estimate, int64(ph.Dur))
					seen = true
				case strings.HasPrefix(ph.Name, "carve-"), ph.Name == "phase2-carve":
					c += int64(ph.Dur)
				case ph.Name == "phase3-en":
					phase3 = append(phase3, int64(ph.Dur))
				case ph.Name == "assemble":
					assemble = append(assemble, int64(ph.Dur))
				}
			}
			if seen {
				carve = append(carve, c)
			}
		}
	}
	set("ldd.estimate_ms", quantile(estimate, 0.5)/1e6)
	set("ldd.carve_ms", quantile(carve, 0.5)/1e6)
	set("ldd.phase3_ms", quantile(phase3, 0.5)/1e6)
	set("ldd.assemble_ms", quantile(assemble, 0.5)/1e6)
}

// ladder replays each cold op right after its HTTP round trip, one rung
// down at a time: engine.Run on a private engine (a miss: every op has a
// fresh seed), the algo registry's Spec.RunSpec, the kernel alone, and for
// changli one graph.ParBFS. The rungs of one op run back to back, so they
// see the same machine. A layer's self time is the difference between the
// medians of adjacent rungs, so a family's self times add up to its HTTP
// median.
type ladder struct {
	p       *plan
	e       *engine.Engine
	handles [numRoles]engine.Handle
	pw      *graph.ParWorkspace

	http, eng, alg, kern [numFamilies][]int64
	bfs                  []int64
	spent                time.Duration // replay time, excluded from throughput
	err                  error
}

func newLadder(p *plan) *ladder {
	l := &ladder{p: p, e: engine.New(engine.Options{RepairK: prodRepairK}), pw: graph.AcquireParWorkspace()}
	for r := role(0); r < numRoles; r++ {
		l.handles[r] = l.e.Register(p.graphs[r])
	}
	return l
}

func (l *ladder) close() { graph.ReleaseParWorkspace(l.pw) }

func (l *ladder) replay(idx int, httpNS int64) {
	if l.err != nil {
		return
	}
	start := time.Now()
	defer func() { l.spent += time.Since(start) }()
	ctx := context.Background()
	k := l.p.keys[idx]
	g := l.p.graphs[k.role]
	spec, _ := algo.Get(k.algo())
	params, err := algo.ParseParamString(k.q())
	if err != nil {
		l.err = err
		return
	}
	t0 := time.Now()
	if _, err := l.e.Run(ctx, l.handles[k.role], spec.Name, params); err != nil {
		l.err = fmt.Errorf("ladder engine rung: %w", err)
		return
	}
	te := time.Since(t0).Nanoseconds()
	t0 = time.Now()
	if _, err := spec.RunSpec(ctx, g, params); err != nil {
		l.err = fmt.Errorf("ladder algo rung: %w", err)
		return
	}
	ta := time.Since(t0).Nanoseconds()
	tk, err := kernel(ctx, k, g)
	if err != nil {
		l.err = fmt.Errorf("ladder kernel rung: %w", err)
		return
	}
	if k.fam == famChangli {
		t0 = time.Now()
		graph.ParBFS(l.pw, g, int(k.seed%uint64(g.N())), 0)
		l.bfs = append(l.bfs, time.Since(t0).Nanoseconds())
	}
	l.http[k.fam] = append(l.http[k.fam], httpNS)
	l.eng[k.fam] = append(l.eng[k.fam], te)
	l.alg[k.fam] = append(l.alg[k.fam], ta)
	l.kern[k.fam] = append(l.kern[k.fam], tk)
}

func (l *ladder) report(set func(string, float64)) {
	med := func(xs []int64) float64 { return quantile(xs, 0.5) / 1e6 }
	var algoSelf, engSelf []float64
	for _, f := range []family{famChangli, famPacking, famCovering} {
		name := "ladder." + familyNames[f] + "."
		set(name+"total_ms", med(l.http[f]))
		set(name+"http_self_ms", med(l.http[f])-med(l.eng[f]))
		set(name+"engine_self_ms", med(l.eng[f])-med(l.alg[f]))
		set(name+"algo_self_ms", med(l.alg[f])-med(l.kern[f]))
		engSelf = append(engSelf, med(l.eng[f])-med(l.alg[f]))
		algoSelf = append(algoSelf, med(l.alg[f])-med(l.kern[f]))
	}
	set("ldd.changli_ms", med(l.kern[famChangli]))
	set("packing.solve_ms", med(l.kern[famPacking]))
	set("covering.solve_ms", med(l.kern[famCovering]))
	set("graph.parbfs_ms", med(l.bfs))
	set("algo.self_ms", mean(algoSelf))
	set("engine.miss_self_ms", mean(engSelf))
}

// kernel times the paper algorithm behind k's family called directly,
// with the parameters the registry derives from k's request. The ILP
// instance is built off the clock: building it is the algo layer's work.
func kernel(ctx context.Context, k key, g *graph.Graph) (int64, error) {
	var err error
	switch k.fam {
	case famChangli:
		t0 := time.Now()
		_, err = ldd.ChangLiCtx(ctx, g, ldd.Params{Epsilon: changliEps, Scale: changliScale, Seed: k.seed})
		return time.Since(t0).Nanoseconds(), err
	case famPacking:
		inst, err := problems.Build(problems.MIS, g, nil)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = packing.SolveCtx(ctx, inst, packing.Params{Epsilon: ilpEps, Seed: k.seed, PrepRuns: ilpPrepRuns})
		return time.Since(t0).Nanoseconds(), err
	case famCovering:
		inst, err := problems.Build(problems.MinDominatingSet, g, nil)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = covering.SolveCtx(ctx, inst, covering.Params{Epsilon: ilpEps, Seed: k.seed, PrepRuns: ilpPrepRuns})
		return time.Since(t0).Nanoseconds(), err
	}
	return 0, fmt.Errorf("no kernel for %s", familyNames[k.fam])
}
