// Command serve loads a graph into a versioned mutable store, warms the
// sharded decomposition engine, and drives it with a mixed read/write
// workload, reporting read and write throughput and cache effectiveness
// under churn. The workload is either a request trace replayed from a file
// (-trace) or a synthetic closed-loop load generated from a seeded RNG, so
// runs are reproducible.
//
// Every algorithm in the registry (internal/algo) is servable: a trace line
// is "algo key=value ..." for any registered name, and -algo selects the
// decomposition family of the synthetic workload. The graph is mutable
// while being served: mutation ops rewrite the store, giving the graph a
// new snapshot identity, and subsequent algorithm requests recompute
// against the new version while results for superseded snapshots age out
// of the engine's LRU. -churn makes the synthetic workload mutate, and
// -compactevery folds the delta overlay back into a fresh CSR every N
// writes. -timeout puts a deadline on every request; deadline-exceeded
// requests are counted and reported rather than failing the run.
//
// Beyond the in-process replay, two network modes bracket the HTTP serving
// layer (internal/server): -http exposes the loaded graph as a real service
// (SIGINT/SIGTERM drains gracefully — in-flight requests finish, new ones
// get 503), and -connect turns this binary into the load generator for a
// remote server, issuing the same seeded workloads over real sockets and
// reporting read/write throughput, timeouts, and shed requests.
//
// Every closed-loop run reports per-request latency percentiles (p50/p90/
// p99/p99.9) from a lock-cheap histogram. -slowlog writes an NDJSON
// slow-query log ("-" = stderr) for requests slower than -slowms
// milliseconds, each line carrying the algorithm, cache key, snapshot
// fingerprint, and per-phase latency breakdown; in -http mode the server
// additionally exposes /metrics (Prometheus text), /debug/traces, and
// /debug/pprof/*.
//
// Usage:
//
//	serve -gen gnp -n 5000 -requests 20000 -concurrency 8
//	serve -load web.metis.gz -requests 10000 -seedspace 4
//	serve -gen grid -n 10000 -trace trace.txt -concurrency 16 -timeout 50ms
//	serve -gen gnp -n 2000 -requests 20000 -churn 0.05 -compactevery 64
//	serve -gen gnp -n 5000 -http :8080 -shards 16
//	serve -connect http://localhost:8080 -requests 20000 -churn 0.1 -concurrency 8
//
// Trace files contain one request per line ('#' starts a comment):
//
//	changli eps=0.3 seed=4 [scale=0.05] [skip2=true]
//	sparsecover lambda=0.5 seed=2
//	netdecomp lambda=0.5 seed=1
//	gkm problem=mis eps=0.25 seed=3
//	packing problem=mis prep=2 seed=1
//	cluster v=17 eps=0.3 seed=4 [scale=0.05]
//	ball v=17 k=2
//	addedge 17 42
//	deledge 17 18
//	compact
//
// (aliases like cover/net/chang-li work too; see the README table.)
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// buildGraph constructs the requested generated topology on roughly n
// vertices (gen.Family is the shared vocabulary of the CLIs and the HTTP
// layer's generate endpoint).
func buildGraph(kind string, n int, seed uint64) (*graph.Graph, error) {
	return gen.Family(kind, n, seed)
}

// request is one parsed workload operation: a registry algorithm
// invocation by name, a point query (cluster, ball) served from the cached
// ChangLi decomposition, or a store mutation (addedge, deledge, compact).
type request struct {
	op     string // "algo" | "cluster" | "ball" | "addedge" | "deledge" | "compact"
	algo   string // registry name when op == "algo"
	params algo.Params
	cl     server.QueryRequest // cluster point queries: eps, scale, seed, skip2
	vertex int32
	radius int
	u, v   int32 // mutation endpoints
}

// write reports whether the request mutates the store.
func (r request) write() bool {
	return r.op == "addedge" || r.op == "deledge" || r.op == "compact"
}

// name labels the request for traces: the registry name for algorithm runs,
// the op otherwise.
func (r request) name() string {
	if r.op == "algo" {
		return r.algo
	}
	return r.op
}

// issue executes the request against the engine (reads) or the store
// (writes). noop reports a mutation that found nothing to do — the edge
// was already present (addedge) or already gone (deledge, typically lost
// to a concurrent delete of the same sampled edge).
func (r request) issue(ctx context.Context, e *engine.Engine, h engine.StoreHandle) (noop bool, err error) {
	switch r.op {
	case "algo":
		_, err := e.Run(ctx, h, r.algo, r.params)
		return false, err
	case "cluster":
		_, _, err := e.ClusterOf(ctx, h, r.cl.ClusterParams(), []int32{r.vertex})
		return false, err
	case "ball":
		_, _, err := e.Balls(ctx, h, []int32{r.vertex}, r.radius, 1)
		return false, err
	case "addedge":
		return !h.Store().AddEdge(int(r.u), int(r.v)), nil
	case "deledge":
		return !h.Store().DeleteEdge(int(r.u), int(r.v)), nil
	case "compact":
		_, err := h.Store().Compact()
		return false, err
	default:
		return false, fmt.Errorf("unknown op %q", r.op)
	}
}

// issueHTTP executes the request against a remote serving layer through
// the typed client, mirroring issue's op mapping onto the HTTP API.
func (r request) issueHTTP(ctx context.Context, c *server.Client, id string) (noop bool, err error) {
	switch r.op {
	case "algo":
		_, err := c.Run(ctx, id, server.RunRequest{Algo: r.algo, Params: r.params})
		return false, err
	case "cluster":
		q := r.cl
		q.Op, q.Vertices = "cluster", []int32{r.vertex}
		_, err := c.Query(ctx, id, q)
		return false, err
	case "ball":
		_, err := c.Query(ctx, id, server.QueryRequest{Op: "ball", Vertices: []int32{r.vertex}, Radius: r.radius})
		return false, err
	case "addedge":
		mr, err := c.AddEdge(ctx, id, int(r.u), int(r.v))
		return err == nil && !mr.Applied, err
	case "deledge":
		mr, err := c.DeleteEdge(ctx, id, int(r.u), int(r.v))
		return err == nil && !mr.Applied, err
	case "compact":
		_, err := c.Compact(ctx, id)
		return false, err
	default:
		return false, fmt.Errorf("unknown op %q", r.op)
	}
}

// parseMutation parses the positional mutation ops of the trace language:
// "addedge u v", "deledge u v", "compact".
func parseMutation(fields []string, n int) (request, error) {
	r := request{op: fields[0]}
	if r.op == "compact" {
		if len(fields) != 1 {
			return r, errors.New("compact takes no arguments")
		}
		return r, nil
	}
	if len(fields) != 3 {
		return r, fmt.Errorf("%s wants two endpoints, got %d fields", r.op, len(fields)-1)
	}
	// Name the op and the offending token: a raw strconv error out of a
	// positional op gave no hint which mutation (or which endpoint) was at
	// fault, even with the file:line prefix the trace reader adds.
	u, err := strconv.Atoi(fields[1])
	if err != nil {
		return r, fmt.Errorf("%s: bad endpoint %q (want a vertex id)", r.op, fields[1])
	}
	v, err := strconv.Atoi(fields[2])
	if err != nil {
		return r, fmt.Errorf("%s: bad endpoint %q (want a vertex id)", r.op, fields[2])
	}
	if u < 0 || u >= n || v < 0 || v >= n {
		return r, fmt.Errorf("%s: endpoint of {%d, %d} out of range [0, %d)", r.op, u, v, n)
	}
	if u == v {
		return r, fmt.Errorf("%s: self-loop {%d, %d} rejected", r.op, u, v)
	}
	r.u, r.v = int32(u), int32(v)
	return r, nil
}

// parseTraceLine parses one "op key=value ..." request line: cluster and
// ball are point queries, addedge/deledge/compact are store mutations, and
// anything else resolves against the registry.
func parseTraceLine(text string, n int) (request, bool, error) {
	fields := strings.Fields(text)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return request{}, false, nil
	}
	r := request{op: fields[0]}
	switch r.op {
	case "addedge", "deledge", "compact":
		r, err := parseMutation(fields, n)
		return r, err == nil, err
	}
	if r.op != "cluster" && r.op != "ball" {
		spec, ok := algo.Get(r.op)
		if !ok {
			return r, false, fmt.Errorf("unknown op %q (registry has %s)", r.op, strings.Join(algo.Names(), ", "))
		}
		params, err := algo.ParseParams(fields[1:])
		if err != nil {
			return r, false, err
		}
		// CacheKey both validates the keys and parses every value, so a
		// malformed trace fails at load time, not mid-replay.
		if _, err := spec.CacheKey(params); err != nil {
			return r, false, err
		}
		r.op, r.algo, r.params = "algo", spec.Name, params
		return r, true, nil
	}
	kv := make(map[string]string, len(fields)-1)
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return r, false, fmt.Errorf("bad token %q", f)
		}
		kv[k] = v
	}
	getF := func(key string, def float64) (float64, error) {
		s, ok := kv[key]
		if !ok {
			return def, nil
		}
		return strconv.ParseFloat(s, 64)
	}
	getI := func(key string, def int) (int, error) {
		s, ok := kv[key]
		if !ok {
			return def, nil
		}
		return strconv.Atoi(s)
	}
	var err error
	switch r.op {
	case "cluster":
		if r.cl.Eps, err = getF("eps", 0.3); err != nil {
			return r, false, err
		}
		if r.cl.Scale, err = getF("scale", 0.05); err != nil {
			return r, false, err
		}
		var seed int
		if seed, err = getI("seed", 1); err != nil {
			return r, false, err
		}
		r.cl.Seed = uint64(seed)
		r.cl.Skip2 = kv["skip2"] == "true"
	case "ball":
		if r.radius, err = getI("k", 2); err != nil {
			return r, false, err
		}
	}
	var v int
	if v, err = getI("v", 0); err != nil {
		return r, false, err
	}
	if v < 0 || v >= n {
		return r, false, fmt.Errorf("vertex %d out of range [0, %d)", v, n)
	}
	r.vertex = int32(v)
	return r, true, nil
}

// readTrace parses a trace file into a request list.
func readTrace(path string, n int) ([]request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []request
	s := bufio.NewScanner(f)
	line := 0
	for s.Scan() {
		line++
		r, ok, err := parseTraceLine(s.Text(), n)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if ok {
			out = append(out, r)
		}
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// synthSpace is the precomputed parameter space of the synthetic workload:
// one decomposition request per seed for the chosen algorithm, plus the
// cover side-dish and the ChangLi params backing the cluster point queries.
type synthSpace struct {
	decomp []request // one per seed, algorithm = -algo
	cover  []request
	cl     []server.QueryRequest // cluster query params (changli-backed)
}

func makeSynthSpace(spec *algo.Spec, seedSpace int, eps, scale float64) synthSpace {
	var sp synthSpace
	for s := 0; s < seedSpace; s++ {
		// Forward only the knobs the chosen algorithm declares: -eps maps
		// onto its eps (or lambda) parameter, -scale onto scale. "solve"
		// declares none of these and runs on its defaults.
		p := algo.Params{}
		if spec.Has("seed") {
			p["seed"] = strconv.Itoa(s)
		}
		if spec.Has("eps") {
			p["eps"] = strconv.FormatFloat(eps, 'g', -1, 64)
		} else if spec.Has("lambda") {
			p["lambda"] = strconv.FormatFloat(eps, 'g', -1, 64)
		}
		if spec.Has("scale") {
			p["scale"] = strconv.FormatFloat(scale, 'g', -1, 64)
		}
		if spec.Name == "gkm" {
			// The GKM horizon at paper constants dwarfs laptop graphs; the
			// changli-oriented -scale default would make it worse, so the
			// synthetic workload pins the E6/E7 experiment scale.
			p["scale"] = "0.4"
		}
		sp.decomp = append(sp.decomp, request{op: "algo", algo: spec.Name, params: p})
		sp.cover = append(sp.cover, request{op: "algo", algo: "sparsecover",
			params: algo.Params{"lambda": "0.5", "seed": strconv.Itoa(s)}})
		sp.cl = append(sp.cl, server.QueryRequest{Eps: eps, Scale: scale, Seed: uint64(s)})
	}
	return sp
}

// synthesize generates a reproducible closed-loop workload: each worker
// draws its own request stream from xrand.Stream(seed, worker, ·), mixing
// decomposition requests over a small parameter space (so the cache can
// pay off) with cluster and ball point queries and — with probability
// churn — store mutations. Inserts draw random endpoint pairs (an
// already-present edge is a no-op); deletes sample an incident edge of a
// random vertex through the neighbors func — the live snapshot in-process,
// a radius-1 ball query over the wire in -connect mode — so deletions
// actually land on sparse graphs (a concurrent delete of the same edge is
// a no-op).
func synthesize(rng *xrand.RNG, n int, sp synthSpace, churn float64, neighbors func(u int) []int32) request {
	if churn > 0 && rng.Float64() < churn {
		if rng.Intn(2) == 0 {
			for try := 0; try < 8; try++ {
				u := rng.Intn(n)
				if nb := neighbors(u); len(nb) > 0 {
					return request{op: "deledge", u: int32(u), v: nb[rng.Intn(len(nb))]}
				}
			}
			// Degenerate near-edgeless graph: fall through to an insert.
		}
		return request{op: "addedge", u: int32(rng.Intn(n)), v: int32(rng.Intn(n))}
	}
	s := rng.Intn(len(sp.decomp))
	switch roll := rng.Intn(10); {
	case roll < 4:
		return sp.decomp[s]
	case roll < 7:
		return request{op: "cluster", cl: sp.cl[s], vertex: int32(rng.Intn(n))}
	case roll < 9:
		return request{op: "ball", vertex: int32(rng.Intn(n)), radius: 1 + rng.Intn(3)}
	default:
		return sp.cover[s]
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(w)
	load := fs.String("load", "", "graph file to load (format by extension; see internal/graphio)")
	genKind := fs.String("gen", "gnp", "generated family when -load is empty: cycle|path|grid|torus|gnp|regular")
	n := fs.Int("n", 2000, "approximate vertex count for -gen")
	genSeed := fs.Uint64("genseed", 1, "generator seed")
	algoName := fs.String("algo", "changli", "synthetic workload decomposition algorithm (any registry name)")
	eps := fs.Float64("eps", 0.3, "epsilon for synthetic decomposition requests")
	scale := fs.Float64("scale", 0.05, "radius scale for synthetic decomposition requests")
	requests := fs.Int("requests", 10000, "synthetic request count (ignored with -trace)")
	concurrency := fs.Int("concurrency", par.Workers(0), "closed-loop client goroutines")
	seedSpace := fs.Int("seedspace", 4, "distinct decomposition seeds in the synthetic workload")
	capacity := fs.Int("capacity", 0, "engine cache capacity (0 = default)")
	shards := fs.Int("shards", 0, "engine shard count (0 = default; rounded to a power of two)")
	repairK := fs.Int("repairk", 16, "delta-repair ancestry window: a cache miss repairs a cached result up to this many mutations old instead of recomputing (0 = always recompute)")
	workers := fs.Int("workers", 0, "per-query worker bound for parallel BFS inside algorithm runs (0 = GOMAXPROCS); results are bit-identical at any setting")
	seed := fs.Uint64("seed", 1, "workload seed")
	trace := fs.String("trace", "", "replay this request trace instead of synthesizing")
	timeout := fs.Duration("timeout", 0, "per-request deadline (0 = none); expired requests are counted, not fatal")
	warm := fs.Bool("warm", true, "precompute the synthetic seed space before timing")
	churn := fs.Float64("churn", 0, "fraction of synthetic requests that mutate the graph (0 = read-only)")
	compactEvery := fs.Int("compactevery", 0, "fold the delta overlay into a fresh CSR every N writes (0 = never)")
	httpAddr := fs.String("http", "", "serve the graph over HTTP at this address (e.g. :8080) instead of replaying a workload; SIGINT/SIGTERM drains gracefully")
	clusterMode := fs.Bool("cluster", false, "router mode: consistent-hash graphs across -nodes backends and serve the /v1 surface at -http (delta-log replication, hedged reads)")
	nodes := fs.String("nodes", "", "with -cluster: comma-separated backend base URLs (e.g. http://127.0.0.1:9001,http://127.0.0.1:9002)")
	replicas := fs.Int("replicas", 0, "with -cluster: members per graph, owner included (0 = min(2, nodes))")
	hedgeAfter := fs.Duration("hedge-after", 0, "with -cluster: launch a hedged read on the next replica after this long (0 = 2ms default, negative disables)")
	connect := fs.String("connect", "", "drive a remote serving layer at this base URL (e.g. http://host:8080) instead of the in-process engine")
	graphID := fs.String("graphid", "", "with -connect: drive this existing server-side graph instead of uploading/generating one")
	maxInflight := fs.Int("maxinflight", 0, "with -http: admission gate size; excess requests shed with 503 (0 = default)")
	drainTimeout := fs.Duration("draintimeout", 30*time.Second, "with -http: how long shutdown waits for in-flight requests")
	datadir := fs.String("datadir", "", "durability directory: mutations are WAL-logged and survive restarts; an existing store there is recovered and -load/-gen are ignored (empty = memory-only)")
	walFlush := fs.Duration("walflush", 0, "WAL group-commit fsync interval (0 = default 2ms; negative = fsync every append)")
	slowlogPath := fs.String("slowlog", "", "write an NDJSON slow-query log to this file (\"-\" = stderr); enables per-request tracing")
	slowMS := fs.Int("slowms", 0, "with -slowlog: only log requests slower than this many milliseconds (0 = log every traced request)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *requests <= 0 || *concurrency <= 0 || *seedSpace <= 0 {
		return errors.New("requests, concurrency, and seedspace must be positive")
	}
	if *churn < 0 || *churn > 1 {
		return errors.New("churn must be in [0, 1]")
	}
	if *repairK < 0 {
		return errors.New("repairk must be >= 0")
	}
	if *httpAddr != "" && *connect != "" {
		return errors.New("-http and -connect are mutually exclusive")
	}
	if *datadir != "" && *connect != "" {
		return errors.New("-datadir applies to the serving side, not -connect mode")
	}
	spec, ok := algo.Get(*algoName)
	if !ok {
		return fmt.Errorf("unknown algorithm %q (registry has %s)", *algoName, strings.Join(algo.Names(), ", "))
	}
	if *slowMS < 0 {
		return errors.New("slowms must be >= 0")
	}

	// -slowlog turns on per-request tracing with an NDJSON sink; requests
	// whose total crosses -slowms land in the log with their per-phase
	// breakdown.
	var tracer *obs.Tracer
	if *slowlogPath != "" {
		out := io.Writer(os.Stderr)
		if *slowlogPath != "-" {
			f, err := os.Create(*slowlogPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		tracer = obs.NewTracer(obs.TracerOptions{
			SlowLog:       obs.NewSlowLog(out),
			SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
		})
		fmt.Fprintf(w, "slowlog: %s (threshold %dms)\n", *slowlogPath, *slowMS)
	}

	if *clusterMode {
		if *httpAddr == "" {
			return errors.New("-cluster needs -http to listen on")
		}
		if *datadir != "" {
			return errors.New("-datadir applies to backend nodes, not the router")
		}
		var list []string
		for _, s := range strings.Split(*nodes, ",") {
			if s = strings.TrimSpace(s); s != "" {
				list = append(list, s)
			}
		}
		if len(list) == 0 {
			return errors.New("-cluster needs -nodes with at least one backend URL")
		}
		return serveCluster(w, *httpAddr, list, *replicas, *hedgeAfter, *drainTimeout)
	}

	if *connect != "" {
		return driveHTTP(w, httpDriveConfig{
			base: *connect, graphID: *graphID, load: *load, genKind: *genKind,
			trace: *trace, n: *n, genSeed: *genSeed, seed: *seed, spec: spec,
			seedSpace: *seedSpace, eps: *eps, scale: *scale, requests: *requests,
			concurrency: *concurrency, timeout: *timeout, warm: *warm,
			churn: *churn, compactEvery: *compactEvery,
		})
	}

	var g *graph.Graph
	var err error
	if *load != "" {
		if g, err = graphio.Load(*load); err != nil {
			return err
		}
	} else if g, err = buildGraph(*genKind, *n, *genSeed); err != nil {
		return err
	}
	if g.N() == 0 {
		return errors.New("empty graph")
	}

	st, recovered, err := openStore(g, *datadir, *walFlush)
	if err != nil {
		return err
	}
	defer st.Close()
	if recovered {
		fmt.Fprintf(w, "datadir: recovered %s: epoch %d, n=%d m=%d, fingerprint %s\n",
			*datadir, st.Epoch(), st.N(), st.M(), st.Fingerprint().Short())
	} else if *datadir != "" {
		fmt.Fprintf(w, "datadir: created %s\n", *datadir)
	}

	if *httpAddr != "" {
		// -http always traces (the ring behind /debug/traces is cheap at
		// HTTP request rates); -slowlog additionally attaches the NDJSON
		// sink built above.
		if tracer == nil {
			tracer = obs.NewTracer(obs.TracerOptions{})
		}
		return serveHTTP(w, st, *httpAddr,
			engine.Options{Capacity: *capacity, Shards: *shards, RepairK: *repairK, Workers: *workers},
			server.Options{MaxInflight: *maxInflight, DefaultTimeout: *timeout, Tracer: tracer},
			*drainTimeout)
	}

	e := engine.New(engine.Options{Capacity: *capacity, Shards: *shards, RepairK: *repairK, Workers: *workers})
	h := e.RegisterStore(st)
	// A recovered store supersedes the -gen/-load graph, so size the
	// workload off the store, not g.
	nv := st.N()
	fmt.Fprintf(w, "graph: n=%d m=%d  fingerprint: %s  shards: %d\n",
		nv, st.M(), st.Snapshot().Fingerprint().Short(), e.NumShards())
	fmt.Fprintf(w, "parallel: GOMAXPROCS %d (%d cpus), per-query workers %d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), e.Workers())

	var work []request
	if *trace != "" {
		if work, err = readTrace(*trace, nv); err != nil {
			return err
		}
		if len(work) == 0 {
			return errors.New("trace contains no requests")
		}
		fmt.Fprintf(w, "trace: %d requests from %s\n", len(work), *trace)
	}

	// Hoisted out of the request loop: a per-request closure literal would
	// cost one heap allocation on the ~10^6 req/s synthetic hot path.
	neighborsOf := func(u int) []int32 { return st.Snapshot().Neighbors(u) }

	sp := makeSynthSpace(spec, *seedSpace, *eps, *scale)
	if *warm && *trace == "" {
		t0 := time.Now()
		for _, r := range sp.decomp {
			if _, err := r.issue(context.Background(), e, h); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "warm: %d %s decompositions in %v\n", *seedSpace, spec.Name, time.Since(t0).Round(time.Millisecond))
	}

	total := *requests
	if *trace != "" {
		total = len(work)
	}
	errs := make([]error, *concurrency)
	var timeouts, reads, writes, noops atomic.Uint64
	var lat obs.Histogram // per-request closed-loop latency
	t0 := time.Now()
	par.ForEach(*concurrency, *concurrency, func(_, client int) {
		rng := xrand.Stream(*seed, client, 0x5e12e)
		// Closed loop: each client issues its share back to back.
		for i := client; i < total; i += *concurrency {
			var r request
			if *trace != "" {
				r = work[i]
			} else {
				r = synthesize(&rng, nv, sp, *churn, neighborsOf)
			}
			if r.write() {
				if n := writes.Add(1); *compactEvery > 0 && n%uint64(*compactEvery) == 0 {
					if _, cerr := st.Compact(); cerr != nil {
						errs[client] = cerr
						return
					}
				}
			} else {
				reads.Add(1)
			}
			ctx := context.Background()
			var tr *obs.Trace
			if tracer != nil {
				ctx, tr = tracer.Start(ctx, r.name())
			}
			cancel := context.CancelFunc(func() {})
			if *timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, *timeout)
			}
			tq := time.Now()
			noop, err := r.issue(ctx, e, h)
			lat.Observe(time.Since(tq))
			tr.Finish(0) // nil-safe; emits the slow-log event if over threshold
			cancel()
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
					timeouts.Add(1)
					continue
				}
				errs[client] = err
				return
			}
			if noop {
				noops.Add(1)
			}
		}
	})
	elapsed := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	est := e.Stats()
	lookups := est.Hits + est.Misses + est.Dedup
	hitRate := 0.0
	effRate := 0.0
	if lookups > 0 {
		hitRate = float64(est.Hits+est.Dedup) / float64(lookups)
		// Repaired misses never ran the full algorithm, so they count
		// toward the effective (recompute-avoiding) rate.
		effRate = float64(est.Hits+est.Dedup+est.RepairHits) / float64(lookups)
	}
	fmt.Fprintf(w, "served %d requests in %v with %d clients: %.0f req/s\n",
		total, elapsed.Round(time.Microsecond), *concurrency,
		float64(total)/elapsed.Seconds())
	fmt.Fprintf(w, "mix: %d reads (%.0f/s), %d writes (%.0f/s, %d no-ops)\n",
		reads.Load(), float64(reads.Load())/elapsed.Seconds(),
		writes.Load(), float64(writes.Load())/elapsed.Seconds(), noops.Load())
	fmt.Fprintf(w, "cache: %d hits, %d dedup joins, %d misses (hit rate %.1f%%), %d computations, %d evictions, %d batch queries\n",
		est.Hits, est.Dedup, est.Misses, 100*hitRate, est.Computations, est.Evictions, est.Queries)
	if *repairK > 0 {
		fmt.Fprintf(w, "repair: %d exact, %d repaired, %d recomputed (effective hit rate %.1f%%), %d fallbacks, %d clusters re-carved\n",
			est.Hits+est.Dedup, est.RepairHits, est.Misses-est.RepairHits, 100*effRate,
			est.RepairFallbacks, est.RepairedClusters)
	}
	printLatency(w, &lat)
	if tracer != nil {
		fmt.Fprintf(w, "slowlog: %d of %d traced requests crossed the %dms threshold (%d write errors)\n",
			tracer.Slow(), tracer.Finished(), *slowMS, tracer.SlowLog().WriteErrors())
	}
	if sst := st.Stats(); sst.Epoch > 0 || sst.Durable {
		fmt.Fprintf(w, "store: epoch %d (%d adds, %d dels, %d compactions), %d pending deltas (%d bytes) over %d patched vertices, graph now n=%d m=%d\n",
			sst.Epoch, sst.Adds, sst.Dels, sst.Compactions, sst.PendingDeltas, sst.DeltaBytes, sst.PatchedVertices, st.N(), st.M())
		if sst.Durable {
			fmt.Fprintf(w, "durable: dir %s, checkpoint epoch %d, %d wal syncs\n",
				st.Dir(), sst.CheckpointEpoch, sst.WALSyncs)
		}
	}
	if *timeout > 0 {
		fmt.Fprintf(w, "deadlines: %d of %d requests exceeded %v (%d engine cancellations)\n",
			timeouts.Load(), total, *timeout, est.Cancellations)
	}
	return nil
}

// printLatency reports the closed-loop per-request latency percentiles.
func printLatency(w io.Writer, lat *obs.Histogram) {
	s := lat.Snapshot()
	if s.Count == 0 {
		return
	}
	sum := s.Summarize()
	d := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
	fmt.Fprintf(w, "latency: p50 %v  p90 %v  p99 %v  p99.9 %v  (mean %v over %d requests)\n",
		d(sum.P50), d(sum.P90), d(sum.P99), d(sum.P999),
		time.Duration(sum.Mean).Round(time.Microsecond), sum.Count)
}

// openStore wires the durability layer behind -datadir: recover an
// existing on-disk store (the loaded/generated graph is superseded by the
// recovered state), create a fresh durable store seeded from g, or fall
// back to a memory-only store when no directory is given. The boolean
// reports whether existing state was recovered.
func openStore(g *graph.Graph, dir string, flush time.Duration) (*store.Store, bool, error) {
	if dir == "" {
		return store.New(g), false, nil
	}
	// Durable stores always carry a WAL metrics bundle: the histograms cost
	// nothing until observed and /metrics exposes them per graph.
	opts := store.Options{Dir: dir, FlushInterval: flush, Metrics: obs.NewWALMetrics()}
	if store.Exists(dir) {
		st, err := store.Open(opts)
		return st, true, err
	}
	st, err := store.Create(g, opts)
	return st, false, err
}

// serveHTTP exposes the prepared store through the internal/server HTTP
// layer and blocks until SIGINT/SIGTERM, then drains gracefully: new
// requests get 503, in-flight ones finish (bounded by drainTimeout),
// durable state is flushed (WAL sync + hot-key persistence), and the final
// engine counters are reported. The listener comes up before prewarming so
// /healthz can answer 503-replaying while the cache is rebuilt from the
// previous life's hot keys.
func serveHTTP(w io.Writer, st *store.Store, addr string, eopts engine.Options, sopts server.Options, drainTimeout time.Duration) error {
	e := engine.New(eopts)
	srv := server.New(e, sopts)
	srv.SetReplaying(true)
	id, h := srv.AddStore(st)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "http: serving graph %s (n=%d m=%d) fingerprint %s with %d shards at http://%s\n",
		id, st.N(), st.M(), st.Snapshot().Fingerprint().Short(), e.NumShards(), ln.Addr())

	// Install the signal handler before serving: a SIGTERM landing between
	// the listener announcement and handler installation must drain, not
	// hard-kill with responses in flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if warmed, err := srv.Prewarm(ctx); err != nil {
		fmt.Fprintf(w, "http: prewarm: %v\n", err)
	} else if warmed > 0 {
		fmt.Fprintf(w, "http: prewarmed %d cached results from persisted hot keys\n", warmed)
	}
	srv.SetReplaying(false)
	fmt.Fprintln(w, "http: ready")
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard
	fmt.Fprintln(w, "http: signal received, draining")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(w, "http: %v\n", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintf(w, "http: shutdown: %v\n", err)
	}
	est := e.Stats()
	fmt.Fprintf(w, "http: drained; cache: %d hits, %d dedup joins, %d misses, %d computations, %d cancellations\n",
		est.Hits, est.Dedup, est.Misses, est.Computations, est.Cancellations)
	sst := h.Store().Stats()
	fmt.Fprintf(w, "http: store epoch %d (%d adds, %d dels, %d compactions), %d pending deltas (%d bytes)\n",
		sst.Epoch, sst.Adds, sst.Dels, sst.Compactions, sst.PendingDeltas, sst.DeltaBytes)
	if sst.Durable {
		fmt.Fprintf(w, "http: durable state flushed to %s (checkpoint epoch %d, %d wal syncs)\n",
			st.Dir(), sst.CheckpointEpoch, sst.WALSyncs)
	}
	return nil
}

// serveCluster runs the coordinator tier: an internal/cluster router
// listening at addr, consistent-hashing graphs across the backend nodes.
// The router is stateless beyond its routing table, so draining is just a
// connection-level shutdown — backends hold the graphs.
func serveCluster(w io.Writer, addr string, nodes []string, replicas int, hedgeAfter, drainTimeout time.Duration) error {
	rt, err := cluster.New(cluster.Options{Nodes: nodes, Replicas: replicas, HedgeAfter: hedgeAfter})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cluster: routing across %d nodes at http://%s\n", len(nodes), ln.Addr())
	for i, n := range rt.Nodes() {
		fmt.Fprintf(w, "cluster: node %d = %s\n", i, n)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: rt}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintln(w, "cluster: ready")
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(w, "cluster: signal received, draining")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintf(w, "cluster: shutdown: %v\n", err)
	}
	fmt.Fprintln(w, "cluster: drained")
	return nil
}

// httpDriveConfig carries the workload flags into the -connect client mode.
type httpDriveConfig struct {
	base, graphID, load, genKind, trace string
	n                                   int
	genSeed, seed                       uint64
	spec                                *algo.Spec
	seedSpace                           int
	eps, scale                          float64
	requests, concurrency               int
	timeout                             time.Duration
	warm                                bool
	churn                               float64
	compactEvery                        int
}

// formatString renders a graphio format as the wire format token of the
// upload endpoint ("el", "dimacs.gz", ...).
func formatString(path string) (string, error) {
	f, gzipped, err := graphio.FormatForPath(path)
	if err != nil {
		return "", err
	}
	var s string
	switch f {
	case graphio.EdgeList:
		s = "el"
	case graphio.DIMACS:
		s = "dimacs"
	case graphio.METIS:
		s = "metis"
	default:
		return "", fmt.Errorf("unsupported format %v", f)
	}
	if gzipped {
		s += ".gz"
	}
	return s, nil
}

// driveHTTP is the load generator's network mode: the same closed-loop
// seeded workloads (synthetic mix, churn, trace replay) issued against a
// remote serving layer over real sockets through the typed client. The
// graph is resolved in order of preference: an existing server-side id
// (-graphid), an uploaded file (-load), or a server-side generate (-gen).
func driveHTTP(w io.Writer, cfg httpDriveConfig) error {
	// Hinted 503 sheds (the admission gate's "overloaded, come back" with a
	// Retry-After) are retried inside the client with bounded jittered
	// backoff; only sheds that survive the budget — or carry no hint, i.e.
	// the server is draining — reach the classification switch below.
	c := server.NewClient(cfg.base, nil).WithRetry(server.RetryPolicy{
		MaxAttempts: 4, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second,
	})
	ctx := context.Background()

	var info *server.GraphInfo
	var err error
	switch {
	case cfg.graphID != "":
		info, err = c.GraphInfo(ctx, cfg.graphID)
	case cfg.load != "":
		var format string
		if format, err = formatString(cfg.load); err != nil {
			return err
		}
		var f *os.File
		if f, err = os.Open(cfg.load); err != nil {
			return err
		}
		info, err = c.Upload(ctx, format, f)
		f.Close()
	default:
		info, err = c.Generate(ctx, cfg.genKind, cfg.n, cfg.genSeed)
	}
	if err != nil {
		return err
	}
	n := info.N
	fmt.Fprintf(w, "connect: %s graph %s  n=%d m=%d  fingerprint: %s\n",
		cfg.base, info.ID, info.N, info.M, info.Fingerprint[:12])

	var work []request
	if cfg.trace != "" {
		if work, err = readTrace(cfg.trace, n); err != nil {
			return err
		}
		if len(work) == 0 {
			return errors.New("trace contains no requests")
		}
		fmt.Fprintf(w, "trace: %d requests from %s\n", len(work), cfg.trace)
	}

	sp := makeSynthSpace(cfg.spec, cfg.seedSpace, cfg.eps, cfg.scale)
	if cfg.warm && cfg.trace == "" {
		t0 := time.Now()
		for _, r := range sp.decomp {
			if _, err := r.issueHTTP(ctx, c, info.ID); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "warm: %d %s decompositions in %v\n", cfg.seedSpace, cfg.spec.Name, time.Since(t0).Round(time.Millisecond))
	}

	// Deletion sampling over the wire: a radius-1 ball query returns the
	// center first, then its current neighbors.
	neighborsOf := func(u int) []int32 {
		qr, qerr := c.Query(ctx, info.ID, server.QueryRequest{Op: "ball", Vertices: []int32{int32(u)}, Radius: 1})
		if qerr != nil || len(qr.Balls) != 1 || len(qr.Balls[0]) < 2 {
			return nil
		}
		return qr.Balls[0][1:]
	}

	total := cfg.requests
	if cfg.trace != "" {
		total = len(work)
	}
	errs := make([]error, cfg.concurrency)
	var timeouts, shed, reads, writes, noops atomic.Uint64
	var lat obs.Histogram // over-the-wire closed-loop latency
	t0 := time.Now()
	par.ForEach(cfg.concurrency, cfg.concurrency, func(_, client int) {
		rng := xrand.Stream(cfg.seed, client, 0x5e12e)
		for i := client; i < total; i += cfg.concurrency {
			var r request
			if cfg.trace != "" {
				r = work[i]
			} else {
				r = synthesize(&rng, n, sp, cfg.churn, neighborsOf)
			}
			if r.write() {
				if nw := writes.Add(1); cfg.compactEvery > 0 && nw%uint64(cfg.compactEvery) == 0 {
					if _, err := c.Compact(ctx, info.ID); err != nil {
						errs[client] = err
						return
					}
				}
			} else {
				reads.Add(1)
			}
			rctx := ctx
			cancel := context.CancelFunc(func() {})
			if cfg.timeout > 0 {
				rctx, cancel = context.WithTimeout(ctx, cfg.timeout)
			}
			tq := time.Now()
			noop, err := r.issueHTTP(rctx, c, info.ID)
			lat.Observe(time.Since(tq))
			cancel()
			switch {
			case err == nil:
				// A mutation that found nothing to do (edge already there,
				// or already deleted by a concurrent client) is a no-op,
				// not an error and not an effective write.
				if noop {
					noops.Add(1)
				}
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
				server.IsStatus(err, http.StatusGatewayTimeout):
				// Client-side deadline (the server sees the disconnect and
				// cancels the compute) or server-side 504.
				timeouts.Add(1)
			case server.IsStatus(err, http.StatusServiceUnavailable):
				// A shed that survived the client's hinted-retry budget, or
				// a drain shed (no hint, never retried).
				shed.Add(1)
			default:
				errs[client] = err
				return
			}
		}
	})
	elapsed := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "served %d requests in %v with %d clients over HTTP: %.0f req/s\n",
		total, elapsed.Round(time.Microsecond), cfg.concurrency,
		float64(total)/elapsed.Seconds())
	fmt.Fprintf(w, "mix: %d reads (%.0f/s), %d writes (%.0f/s, %d no-ops), %d timeouts, %d shed, %d shed retries\n",
		reads.Load(), float64(reads.Load())/elapsed.Seconds(),
		writes.Load(), float64(writes.Load())/elapsed.Seconds(), noops.Load(),
		timeouts.Load(), shed.Load(), c.Retries())
	printLatency(w, &lat)
	if info, err = c.GraphInfo(ctx, info.ID); err == nil {
		fmt.Fprintf(w, "store: epoch %d (%d adds, %d dels, %d compactions), %d pending deltas, graph now n=%d m=%d\n",
			info.Epoch, info.Adds, info.Dels, info.Compactions, info.PendingDeltas, info.N, info.M)
	}
	return nil
}
