package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// httpEndpoints is the fixed endpoint label set for HTTP metrics. Requests
// are classified before routing, so even rejected (shed, 404) requests land
// in a bounded set of series — client-controlled paths never mint labels.
var httpEndpoints = []string{
	"healthz", "metrics", "pprof", "traces",
	"algorithms", "graphs.list", "graphs.create", "graph.info", "graph.delete",
	"run", "query", "addedge", "deledge", "compact", "batch",
	"deltas", "export", "install",
	"other",
}

// classifyEndpoint maps a request to its endpoint label.
func classifyEndpoint(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/healthz":
		return "healthz"
	case "/metrics":
		return "metrics"
	case "/debug/traces":
		return "traces"
	case "/v1/algorithms":
		return "algorithms"
	case "/v1/graphs":
		if r.Method == http.MethodPost {
			return "graphs.create"
		}
		return "graphs.list"
	case "/v1/graphs/install":
		return "install"
	}
	if strings.HasPrefix(p, "/debug/pprof") {
		return "pprof"
	}
	if rest, ok := strings.CutPrefix(p, "/v1/graphs/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			switch rest[i+1:] {
			case "run", "query", "addedge", "deledge", "compact", "batch", "deltas", "export":
				return rest[i+1:]
			}
			return "other"
		}
		if r.Method == http.MethodDelete {
			return "graph.delete"
		}
		return "graph.info"
	}
	return "other"
}

// statusWriter records the response status so the serving layer can label
// metrics and finish traces with the terminal code. It passes Flush through
// so the NDJSON batch endpoint still streams.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// the batch endpoint can switch the connection to full duplex.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// status returns the recorded code, defaulting to 200 for handlers that
// never wrote an explicit header.
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

type statusKey struct {
	endpoint string
	code     int
}

// httpMetrics holds the serving layer's per-endpoint latency histograms and
// per-(endpoint, status) request counters. The histogram map is built once
// and read-only afterwards, so observation is lock-free up to the status
// counter update.
type httpMetrics struct {
	dur map[string]*obs.Histogram

	mu     sync.Mutex
	status map[statusKey]uint64
}

func newHTTPMetrics() *httpMetrics {
	m := &httpMetrics{
		dur:    make(map[string]*obs.Histogram, len(httpEndpoints)),
		status: make(map[statusKey]uint64),
	}
	for _, ep := range httpEndpoints {
		m.dur[ep] = &obs.Histogram{}
	}
	return m
}

func (m *httpMetrics) observe(endpoint string, code int, d time.Duration) {
	h := m.dur[endpoint]
	if h == nil {
		h = m.dur["other"]
	}
	h.Observe(d)
	m.mu.Lock()
	m.status[statusKey{endpoint, code}]++
	m.mu.Unlock()
}

type statusCount struct {
	statusKey
	n uint64
}

// statusCounts snapshots the request counters in deterministic order.
func (m *httpMetrics) statusCounts() []statusCount {
	m.mu.Lock()
	out := make([]statusCount, 0, len(m.status))
	for k, n := range m.status {
		out = append(out, statusCount{k, n})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].endpoint != out[j].endpoint {
			return out[i].endpoint < out[j].endpoint
		}
		return out[i].code < out[j].code
	})
	return out
}

// handleTraces serves the tracer's ring of recent finished traces as JSON,
// newest first. ?n= bounds the count (default: all retained).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad n: %v", err))
			return
		}
	}
	out := []obs.TraceSnapshot{}
	if s.tracer != nil {
		out = s.tracer.Recent(n)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics renders every layer's state in the Prometheus text
// exposition format (version 0.0.4): engine cache/singleflight counters and
// latency histograms, HTTP serving histograms, Go runtime gauges, tracer and
// slow-log counters, and per-graph store + WAL state. Each family carries
// # HELP / # TYPE and the repro_ prefix; histogram buckets are cumulative
// with le boundaries in seconds.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	counter := func(name, help string, v uint64) {
		obs.WriteHeader(w, name, "counter", help)
		obs.WriteUintSample(w, name, "", v)
	}
	gauge := func(name, help string, v uint64) {
		obs.WriteHeader(w, name, "gauge", help)
		obs.WriteUintSample(w, name, "", v)
	}
	durHist := func(name, help string, snap obs.HistSnapshot) {
		obs.WriteHeader(w, name, "histogram", help)
		obs.WriteDurationSeries(w, name, "", &snap)
	}

	// Engine: result cache and singleflight.
	est := s.e.Stats()
	counter("repro_engine_hits_total", "requests answered from the completed-result cache", est.Hits)
	counter("repro_engine_misses_total", "requests that started a new computation", est.Misses)
	counter("repro_engine_dedup_total", "requests that joined an in-flight identical computation", est.Dedup)
	counter("repro_engine_computations_total", "underlying algorithm runs", est.Computations)
	counter("repro_engine_evictions_total", "cache entries dropped by the LRU policy", est.Evictions)
	counter("repro_engine_queries_total", "batch query calls (cluster-of, balls, local solves)", est.Queries)
	counter("repro_engine_cancellations_total", "requests that returned a context error", est.Cancellations)
	counter("repro_engine_repair_hits_total", "misses served by delta-repairing a cached ancestor result", est.RepairHits)
	counter("repro_engine_repair_fallbacks_total", "repair attempts that fell through to a full recompute", est.RepairFallbacks)
	counter("repro_engine_repaired_clusters_total", "clusters re-carved or patched by successful repairs", est.RepairedClusters)
	gauge("repro_engine_cache_entries", "resident completed results across shards", uint64(est.EntriesTotal()))
	gauge("repro_engine_inflight_computations", "computations currently running", uint64(est.InflightTotal()))
	gauge("repro_engine_shards", "number of cache shards", uint64(len(est.Shards)))

	obs.WriteHeader(w, "repro_engine_shard_entries", "gauge", "resident results per shard")
	for i, sh := range est.Shards {
		obs.WriteUintSample(w, "repro_engine_shard_entries", fmt.Sprintf(`shard="%d"`, i), uint64(sh.Entries))
	}
	obs.WriteHeader(w, "repro_engine_shard_evictions_total", "counter", "LRU evictions per shard")
	for i, sh := range est.Shards {
		obs.WriteUintSample(w, "repro_engine_shard_evictions_total", fmt.Sprintf(`shard="%d"`, i), sh.Evictions)
	}
	obs.WriteHeader(w, "repro_engine_shard_inflight", "gauge", "in-flight computations per shard")
	for i, sh := range est.Shards {
		obs.WriteUintSample(w, "repro_engine_shard_inflight", fmt.Sprintf(`shard="%d"`, i), uint64(sh.Inflight))
	}

	// Engine: where the time goes.
	em := s.e.Metrics()
	durHist("repro_engine_hit_seconds",
		"cache-hit lookup latency (sampled; see repro_engine_hit_sample_interval)", em.Hit.Snapshot())
	durHist("repro_engine_compute_seconds", "cache-miss computation latency", em.Compute.Snapshot())
	durHist("repro_engine_joinwait_seconds", "wait behind an in-flight identical computation", em.JoinWait.Snapshot())
	durHist("repro_engine_repair_seconds", "delta-repair latency on the miss path", em.Repair.Snapshot())
	gauge("repro_engine_hit_sample_interval", "hit-path sampling interval (1 = every hit timed)", uint64(em.SampleEvery()))
	obs.WriteHeader(w, "repro_engine_shard_hit_seconds", "gauge", "per-shard sampled hit latency quantiles")
	for i := range em.ShardHit {
		snap := em.ShardHit[i].Snapshot()
		if snap.Count == 0 {
			continue
		}
		obs.WriteQuantileSeries(w, "repro_engine_shard_hit_seconds", fmt.Sprintf(`shard="%d"`, i), &snap)
	}

	// HTTP serving layer.
	inflight, draining := s.gate.stats()
	gauge("repro_server_inflight_requests", "admitted requests currently in flight", uint64(inflight))
	counter("repro_server_admitted_total", "/v1 requests admitted past the gate", s.admitted.Load())
	counter("repro_server_shed_total", "/v1 requests rejected 503 (overload, drain, or replay)", s.shed.Load())
	gauge("repro_server_draining", "1 once Drain has been called", uint64(boolGauge(draining)))
	gauge("repro_server_replaying", "1 while boot-time recovery is still running", uint64(boolGauge(s.replaying.Load())))
	gauge("repro_server_graphs", "graphs under service", uint64(len(s.graphList())))
	gauge("repro_server_uptime_seconds", "seconds since the server was constructed", uint64(time.Since(s.start).Seconds()))

	obs.WriteHeader(w, "repro_http_request_seconds", "histogram", "request latency by endpoint (all requests, including shed)")
	for _, ep := range httpEndpoints {
		snap := s.httpm.dur[ep].Snapshot()
		if snap.Count == 0 {
			continue
		}
		obs.WriteDurationSeries(w, "repro_http_request_seconds", fmt.Sprintf("endpoint=%q", ep), &snap)
	}
	obs.WriteHeader(w, "repro_http_requests_total", "counter", "requests by endpoint and terminal status")
	for _, sc := range s.httpm.statusCounts() {
		obs.WriteUintSample(w, "repro_http_requests_total",
			fmt.Sprintf(`endpoint=%q,status="%d"`, sc.endpoint, sc.code), sc.n)
	}

	// Replication plane (cluster delta streaming; see replication.go).
	counter("repro_replication_deltas_served_total", "delta entries exported to replicas", s.deltasServed.Load())
	counter("repro_replication_deltas_applied_total", "replicated delta entries applied to local stores", s.deltasApplied.Load())
	counter("repro_replication_installs_total", "checkpoint installs (replica resyncs) accepted", s.installs.Load())

	// Tracer and slow log.
	if t := s.tracer; t != nil {
		counter("repro_traces_finished_total", "finished request traces", t.Finished())
		counter("repro_traces_slow_total", "finished traces over the slow threshold", t.Slow())
		if sl := t.SlowLog(); sl != nil {
			counter("repro_slowlog_events_total", "slow-query log lines emitted", sl.Events())
			counter("repro_slowlog_write_errors_total", "slow-query log lines lost to write errors", sl.WriteErrors())
		}
	}

	// Go runtime and parallel-execution shape: how many cores this process
	// may use, and the engine's per-query worker bound (both needed to read
	// throughput numbers across differently provisioned hosts).
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("repro_runtime_gomaxprocs", "scheduler parallelism (GOMAXPROCS)", uint64(runtime.GOMAXPROCS(0)))
	gauge("repro_runtime_num_cpu", "logical CPUs visible to the process", uint64(runtime.NumCPU()))
	gauge("repro_engine_query_workers", "effective per-query worker bound for parallel algorithm execution", uint64(s.e.Workers()))
	gauge("repro_runtime_goroutines", "live goroutines", uint64(runtime.NumGoroutine()))
	gauge("repro_runtime_heap_alloc_bytes", "bytes of allocated heap objects", ms.HeapAlloc)
	gauge("repro_runtime_heap_sys_bytes", "bytes of heap obtained from the OS", ms.HeapSys)
	counter("repro_runtime_gc_cycles_total", "completed GC cycles", uint64(ms.NumGC))
	obs.WriteHeader(w, "repro_runtime_gc_pause_seconds_total", "counter", "cumulative GC stop-the-world pause")
	obs.WriteSample(w, "repro_runtime_gc_pause_seconds_total", "", float64(ms.PauseTotalNs)/1e9)

	// Per-graph store state, one family at a time (exposition requires a
	// family's series to be contiguous). Epoch advances once per applied
	// mutation.
	list := s.graphList()
	graphFamily := func(name, typ, help string, val func(sg *servedGraph) uint64, keep func(sg *servedGraph) bool) {
		obs.WriteHeader(w, name, typ, help)
		for _, sg := range list {
			if keep != nil && !keep(sg) {
				continue
			}
			obs.WriteUintSample(w, name, fmt.Sprintf("graph=%q", sg.id), val(sg))
		}
	}
	durable := func(sg *servedGraph) bool { return sg.st.Stats().Durable }
	graphFamily("repro_graph_vertices", "gauge", "vertex count",
		func(sg *servedGraph) uint64 { return uint64(sg.st.Stats().N) }, nil)
	graphFamily("repro_graph_edges", "gauge", "current edge count",
		func(sg *servedGraph) uint64 { return uint64(sg.st.Stats().M) }, nil)
	graphFamily("repro_graph_epoch", "counter", "mutations applied over the store's lifetime",
		func(sg *servedGraph) uint64 { return sg.st.Stats().Epoch }, nil)
	graphFamily("repro_graph_pending_deltas", "gauge", "delta-log length since the last compaction",
		func(sg *servedGraph) uint64 { return uint64(sg.st.Stats().PendingDeltas) }, nil)
	graphFamily("repro_graph_patched_vertices", "gauge", "vertices with overlaid adjacency",
		func(sg *servedGraph) uint64 { return uint64(sg.st.Stats().PatchedVertices) }, nil)
	graphFamily("repro_graph_adds_total", "counter", "applied edge insertions",
		func(sg *servedGraph) uint64 { return sg.st.Stats().Adds }, nil)
	graphFamily("repro_graph_dels_total", "counter", "applied edge deletions",
		func(sg *servedGraph) uint64 { return sg.st.Stats().Dels }, nil)
	graphFamily("repro_graph_compactions_total", "counter", "delta-overlay compactions",
		func(sg *servedGraph) uint64 { return sg.st.Stats().Compactions }, nil)
	graphFamily("repro_graph_delta_bytes", "gauge", "on-disk footprint of the pending delta log (0 for memory-only graphs)",
		func(sg *servedGraph) uint64 { return uint64(sg.st.Stats().DeltaBytes) }, nil)
	graphFamily("repro_graph_durable", "gauge", "1 when backed by WAL + checkpoint",
		func(sg *servedGraph) uint64 { return uint64(boolGauge(sg.st.Stats().Durable)) }, nil)
	graphFamily("repro_graph_checkpoint_epoch", "counter", "epoch of the on-disk checkpoint",
		func(sg *servedGraph) uint64 { return sg.st.Stats().CheckpointEpoch }, durable)
	graphFamily("repro_graph_wal_syncs_total", "counter", "WAL fsyncs over the store's lifetime",
		func(sg *servedGraph) uint64 { return sg.st.Stats().WALSyncs }, durable)

	// WAL latency for durable graphs whose store carries a metrics bundle.
	walFamily := func(name, help string, snap func(m *obs.WALMetrics) obs.HistSnapshot) {
		obs.WriteHeader(w, name, "histogram", help)
		for _, sg := range list {
			m := sg.st.WALMetrics()
			if m == nil {
				continue
			}
			s := snap(m)
			obs.WriteDurationSeries(w, name, fmt.Sprintf("graph=%q", sg.id), &s)
		}
	}
	walFamily("repro_wal_append_seconds", "WAL append latency (frame encode + buffered write)",
		func(m *obs.WALMetrics) obs.HistSnapshot { return m.Append.Snapshot() })
	walFamily("repro_wal_fsync_seconds", "WAL fsync latency",
		func(m *obs.WALMetrics) obs.HistSnapshot { return m.Fsync.Snapshot() })
	obs.WriteHeader(w, "repro_wal_batch_records", "gauge", "records per WAL group commit (quantiles)")
	for _, sg := range list {
		m := sg.st.WALMetrics()
		if m == nil {
			continue
		}
		snap := m.Batch.Snapshot()
		if snap.Count == 0 {
			continue
		}
		obs.WriteValueQuantileSeries(w, "repro_wal_batch_records", fmt.Sprintf("graph=%q", sg.id), &snap)
	}
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
