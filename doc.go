// Package repro is a full reproduction of Chang & Li, "The Complexity of
// Distributed Approximation of Packing and Covering Integer Linear
// Programs" (PODC 2023, arXiv:2305.01324): low-diameter decompositions with
// with-high-probability guarantees (Theorem 1.1), (1±ε)-approximate packing
// and covering ILPs in the LOCAL model (Theorems 1.2/1.3), the Ω(log n / ε)
// lower bounds (Theorem 1.4), the prior algorithms they improve on
// (Elkin–Neiman, Miller–Peng–Xu, Linial–Saks, GKM17), and the Appendix C
// adversarial families.
//
// The public API lives in internal/core; see README.md for the map and
// bench_test.go for the experiment regeneration targets (E1–E14).
//
// The hot path runs every graph search on one family of traversal kernels
// over reusable, allocation-free workspaces (graph.ParWorkspace, one per
// goroutine) and fans independent work — the
// preparation sparse covers, per-region local solves, per-vertex ball
// queries — across a bounded worker pool (internal/par) with
// deterministic, worker-count-independent results.
//
// Every algorithm family is registered in internal/algo, the unified
// serving surface: a name-indexed registry of typed runners
// Run(ctx, graph, params) with flag- and trace-friendly parameter bags,
// capability metadata, and a uniform result envelope. Cancellation is
// threaded through every compute layer — the worker pool stops
// dispatching, the phase loops, label searches, and branch-and-bound
// solvers poll the context at coarse strides — so any request can be
// deadline-bounded without warm-path cost.
//
// On top sits the serving layer: internal/engine caches results by
// (graph snapshot fingerprint, algorithm, canonical parameters) across N
// independently locked shards, collapses concurrent identical requests
// into one computation (joiners survive a cancelled initiator by
// retrying), and answers batch queries (cluster-of-vertex, ball lookups,
// per-cluster local solves) from the cached structure. Graphs can be
// served mutably: internal/store holds a base CSR plus a copy-on-write
// delta overlay with epoch-stamped tombstones, hands out O(1) immutable
// snapshots, advances the graph's cache identity in O(1) per mutation
// (graphio.NextFingerprint), and folds the overlay back into a fresh CSR
// on Compact — in-flight requests keep the snapshot they resolved, and
// results for superseded snapshots age out of the sharded LRU naturally.
// internal/graphio loads and saves real-world graphs in edge-list,
// DIMACS, and METIS formats (plain or gzip), fuzz-tested against hostile
// inputs; cmd/serve drives the engine with replayed or synthetic mixed
// read/write load — algorithm requests, point queries, and edge
// mutations — reporting read/write throughput and hit rate under churn,
// bounding each request with a deadline.
//
// The network boundary is internal/server: an HTTP/JSON layer that
// exposes the full registry over uploaded, generated, or mutated graphs —
// per-request deadlines map onto context cancellation (a disconnected
// client cancels its compute), an NDJSON batch endpoint streams results,
// /metrics renders the engine, store, and admission counters, and
// shutdown drains gracefully behind a bounded-concurrency admission gate.
//
// Observability is a first-class layer (internal/obs): lock-cheap
// log-bucketed latency histograms over sharded atomic counters sit on
// the engine's sub-microsecond cached-hit path (Observe is three atomic
// adds, zero allocations), a context-carried span tracer names the
// paper's phases (estimate, carve, phase3, assemble) inside each
// request without perturbing results, and a threshold-gated NDJSON
// slow-query log records per-phase breakdowns with the algorithm, cache
// key, and snapshot fingerprint. The server exposes all of it:
// Prometheus-format /metrics with per-endpoint latency histograms and
// runtime gauges, /debug/traces for the recent-span ring, and the
// standard /debug/pprof profiling plane — all bypassing the admission
// gate so a draining or overloaded server can still be inspected.
// An end-to-end equivalence suite pins that results served over HTTP are
// bit-identical to direct engine calls, snapshot stamps included.
// cmd/serve brackets it from both sides: -http serves a graph, -connect
// replays the seeded workloads against a remote server over real sockets.
//
// The serving layer scales past one process with internal/cluster:
// serve -cluster routes the same /v1 surface across N backend nodes,
// placing each graph by rendezvous-hashing its fingerprint (a
// deterministic owner plus -replicas members, no routing state to
// replicate), hedging slow reads across replicas, and forwarding
// mutations to the acting owner before fanning them out synchronously
// as epoch-chained delta-log entries — replicas verify the fingerprint
// chain on apply and recover by delta catch-up or full checkpoint
// resync. Unreachable nodes fail over along the rendezvous succession
// and are probed back in after a probation window; an equivalence suite
// pins that a 3-node cluster answers bit-identically to a single engine
// through an owner kill, a rejoin, and a compaction.
//
// The store is durable when opened with a directory (-datadir): every
// mutation is appended to a CRC32C-framed write-ahead log (internal/wal,
// group-commit fsync) before it touches memory, Compact doubles as an
// atomic on-disk checkpoint that rotates the log behind a manifest commit
// point, and store.Open recovers checkpoint-then-WAL — truncating torn
// tails and re-verifying the epoch/fingerprint chain frame by frame. On
// graceful shutdown the server persists its hottest cache keys and
// prewarms them at the next boot while /healthz answers 503-replaying;
// kill -9 crash recovery is pinned by a test that slaughters a live serve
// process mid-churn and proves the restarted state identical to an
// uninterrupted reference.
package repro
