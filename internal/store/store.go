// Package store is the versioned mutable graph layer under the serving
// engine: a Store holds a base CSR graph plus a delta overlay, so edges can
// be inserted and deleted while the graph is being queried. Reads never
// block behind writes for long — Snapshot returns an immutable, internally
// consistent view in O(1), and mutations copy-on-write only the per-vertex
// adjacency lists they touch.
//
// Representation. The base is an immutable graph.Graph (CSR). The overlay
// is a map from touched vertex to its full current sorted neighbor list;
// untouched vertices read straight from the base CSR. Every applied
// mutation is also appended to an epoch-stamped delta log (deletions are
// the tombstones), which is what Compact folds back into a fresh base CSR
// and what observability reports as the pending write-amplification.
//
// Identity. Each mutation advances the store's fingerprint in O(1) via
// graphio.NextFingerprint, so a mutated graph gets a new cache identity in
// O(delta) total instead of re-hashing the full CSR; stale results keyed by
// superseded fingerprints age out of the serving layer's LRU naturally.
// The incremental chain is history-sensitive; Compact rebuilds the CSR and
// restores the canonical content fingerprint, so two stores that reach the
// same edge set converge after compaction.
//
// Concurrency. All Store methods are safe for concurrent use (one mutex;
// critical sections are O(deg) for mutations, O(1) for Snapshot).
// Snapshots are immutable and safe to share without synchronization.
//
// Durability. A store opened with Options.Dir (Create/Open) writes every
// mutation to a CRC32C-framed write-ahead log (internal/wal) before
// touching memory — a failed append rejects the mutation and latches a
// sticky Err until a successful Compact rotates onto a fresh log. Compact
// doubles as the checkpoint: the folded CSR is written atomically
// (graphio checkpoint format, fingerprint embedded), a fresh WAL is
// created, and MANIFEST.json swings to the new pair as the single commit
// point — a crash anywhere mid-rotation recovers from the old pair. Open
// loads the manifest's checkpoint, re-verifies its CRC and fingerprint,
// replays the WAL (truncating a torn tail at the first bad frame), and
// re-derives the epoch/fingerprint chain, so recovered state is
// bit-identical to what was acknowledged. New/memory-only stores skip all
// of this; durability costs nothing when unused.
package store

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/wal"
)

// Op is a mutation kind in the delta log.
type Op uint8

const (
	// OpAdd is an edge insertion.
	OpAdd Op = Op(graphio.OpAddEdge)
	// OpDel is an edge deletion — an epoch-stamped tombstone for a base or
	// previously inserted edge.
	OpDel Op = Op(graphio.OpDelEdge)
)

// Delta is one applied mutation: the normalized edge (U < V) and the epoch
// at which it was applied (epochs start at 1 and increase by 1 per applied
// mutation; rejected no-ops do not consume an epoch).
type Delta struct {
	Op   Op
	U, V int32
	// Epoch stamps when the mutation was applied.
	Epoch uint64
}

// Stats is a one-shot consistent snapshot of a store's state: every field
// is read under a single critical section, so N/M/Fingerprint/Epoch always
// describe the same version (serving layers that report them over the
// network must not observe a fingerprint from one epoch next to the edge
// count of another).
type Stats struct {
	// N and M are the vertex and current edge counts.
	N, M int
	// Fingerprint is the current snapshot identity (incremental chain value
	// while mutations are pending, canonical content fingerprint otherwise).
	Fingerprint graphio.Fingerprint
	// Epoch is the number of mutations applied over the store's lifetime
	// (monotone; Compact does not reset it).
	Epoch uint64
	// PendingDeltas is the delta-log length since the last Compact.
	PendingDeltas int
	// PatchedVertices counts vertices whose adjacency is overlaid.
	PatchedVertices int
	// Adds, Dels, Compactions are lifetime counters of applied operations.
	Adds, Dels, Compactions uint64
	// DeltaBytes is the on-disk footprint of the pending delta log. WAL
	// frames are fixed-size, so this is exact. Memory-only stores report 0:
	// nothing is on disk (the in-memory log length is PendingDeltas).
	DeltaBytes int64
	// Durable reports whether the store is backed by a WAL + checkpoint
	// directory.
	Durable bool
	// WALSyncs counts fsyncs issued over the store's lifetime (0 when the
	// store is memory-only).
	WALSyncs uint64
	// CheckpointEpoch is the epoch of the on-disk checkpoint the current
	// WAL replays onto (0 when memory-only).
	CheckpointEpoch uint64
}

// Store is a mutable graph with O(1) immutable snapshots. Construct with
// New; the zero value is not usable.
type Store struct {
	mu      sync.Mutex
	base    *graph.Graph
	patched map[int32][]int32 // overlay: full sorted neighbor list per touched vertex
	n, m    int
	fp      graphio.Fingerprint
	epoch   uint64
	log     []Delta
	// fpLog parallels log: fpLog[i] is the fingerprint after log[i] was
	// applied, so together with windowFP (the fingerprint at the start of
	// the window, i.e. after the last Compact) it names every intermediate
	// version in the current delta window. Both are append-only between
	// Compacts, which is what lets snapshots capture slice headers in O(1).
	fpLog    []graphio.Fingerprint
	windowFP graphio.Fingerprint
	sealed   bool // the current patched map is shared with a live snapshot
	snap     *Snapshot

	// cur is the lock-free fast path of Snapshot(): the currently
	// published snapshot, or nil when a mutation has invalidated it.
	// Writers clear/replace it under mu; readers Load without locking, so
	// the serving layer's per-request resolve does not funnel every shard
	// through one store mutex.
	cur atomic.Pointer[Snapshot]

	adds, dels, compactions uint64

	// Durability (zero when the store is memory-only; see durable.go).
	dir       string
	opts      Options
	w         *wal.Writer
	seq       uint64 // manifest sequence of the current checkpoint/WAL pair
	ckptEpoch uint64 // epoch the current checkpoint was taken at
	syncsBase uint64 // fsyncs accumulated by rotated-out WAL writers
	werr      error  // sticky durability error; mutations are rejected while set
}

// New wraps g (retained, must not be mutated by the caller) in a store.
// The initial fingerprint is g's canonical content fingerprint.
func New(g *graph.Graph) *Store {
	fp := graphio.FingerprintOf(g)
	return &Store{
		base:     g,
		patched:  make(map[int32][]int32),
		n:        g.N(),
		m:        g.M(),
		fp:       fp,
		windowFP: fp,
	}
}

// N returns the (fixed) vertex count.
func (s *Store) N() int { return s.n }

// M returns the current edge count.
func (s *Store) M() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m
}

// Epoch returns the number of mutations applied over the store's lifetime.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Fingerprint returns the current (incremental) fingerprint.
func (s *Store) Fingerprint() graphio.Fingerprint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fp
}

// Stats returns the write-side counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		N:               s.n,
		M:               s.m,
		Fingerprint:     s.fp,
		Epoch:           s.epoch,
		PendingDeltas:   len(s.log),
		PatchedVertices: len(s.patched),
		Adds:            s.adds,
		Dels:            s.dels,
		Compactions:     s.compactions,
		Durable:         s.dir != "",
		WALSyncs:        s.syncsBase,
		CheckpointEpoch: s.ckptEpoch,
	}
	if s.dir != "" {
		st.DeltaBytes = int64(len(s.log)) * wal.FrameSize
	}
	if s.w != nil {
		_, syncs := s.w.Counters()
		st.WALSyncs += syncs
	}
	return st
}

// Deltas returns a copy of the delta log accumulated since the last
// Compact (deletions are the tombstones).
func (s *Store) Deltas() []Delta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Delta(nil), s.log...)
}

// neighbors returns v's current adjacency (overlay first, base otherwise).
// Caller holds s.mu; the returned slice must not be modified.
func (s *Store) neighbors(v int32) []int32 {
	if l, ok := s.patched[v]; ok {
		return l
	}
	return s.base.Neighbors(int(v))
}

func contains(list []int32, x int32) bool {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= x })
	return i < len(list) && list[i] == x
}

// insertSorted returns a fresh sorted copy of list with x inserted. Lists
// stored in the overlay are immutable, so mutation always copies — that is
// what lets snapshots share them without locks.
func insertSorted(list []int32, x int32) []int32 {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= x })
	out := make([]int32, len(list)+1)
	copy(out, list[:i])
	out[i] = x
	copy(out[i+1:], list[i:])
	return out
}

// removeSorted returns a fresh copy of list with x removed (x must be
// present).
func removeSorted(list []int32, x int32) []int32 {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= x })
	out := make([]int32, len(list)-1)
	copy(out, list[:i])
	copy(out[i:], list[i+1:])
	return out
}

// prepareWrite detaches the overlay from any live snapshot: the published
// snapshot is invalidated, and if the current patched map is shared
// (sealed), it is cloned before mutation. Individual lists never need
// cloning because they are immutable once stored.
func (s *Store) prepareWrite() {
	s.cur.Store(nil)
	if !s.sealed {
		s.snap = nil
		return
	}
	clone := make(map[int32][]int32, len(s.patched)+2)
	for v, l := range s.patched {
		clone[v] = l
	}
	s.patched = clone
	s.sealed = false
	s.snap = nil
}

// AddEdge inserts the undirected edge {u, v}. It reports whether the edge
// was applied: self-loops, out-of-range endpoints, and already-present
// edges are rejected as no-ops (no epoch is consumed).
func (s *Store) AddEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= s.n || v >= s.n {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if contains(s.neighbors(int32(u)), int32(v)) {
		return false
	}
	if s.logDelta(OpAdd, u, v) != nil {
		// WAL-before-memory: a mutation that cannot be made durable is
		// rejected, never half-applied. Err() carries the cause.
		return false
	}
	s.prepareWrite()
	s.patched[int32(u)] = insertSorted(s.neighbors(int32(u)), int32(v))
	s.patched[int32(v)] = insertSorted(s.neighbors(int32(v)), int32(u))
	s.m++
	s.adds++
	s.applyDelta(OpAdd, u, v)
	return true
}

// DeleteEdge removes the undirected edge {u, v}, recording an
// epoch-stamped tombstone. It reports whether the edge existed.
func (s *Store) DeleteEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= s.n || v >= s.n {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !contains(s.neighbors(int32(u)), int32(v)) {
		return false
	}
	if s.logDelta(OpDel, u, v) != nil {
		return false
	}
	s.prepareWrite()
	s.patched[int32(u)] = removeSorted(s.neighbors(int32(u)), int32(v))
	s.patched[int32(v)] = removeSorted(s.neighbors(int32(v)), int32(u))
	s.m--
	s.dels++
	s.applyDelta(OpDel, u, v)
	return true
}

// applyDelta advances the epoch, the incremental fingerprint, and the log.
// Caller holds s.mu and has already validated and applied the overlay edit.
func (s *Store) applyDelta(op Op, u, v int) {
	if u > v {
		u, v = v, u
	}
	s.epoch++
	s.fp = graphio.NextFingerprint(s.fp, byte(op), int32(u), int32(v))
	s.log = append(s.log, Delta{Op: op, U: int32(u), V: int32(v), Epoch: s.epoch})
	s.fpLog = append(s.fpLog, s.fp)
}

// Snapshot returns an immutable view of the current graph in O(1). The
// snapshot stays valid (and internally consistent) forever: later mutations
// copy-on-write around it. Repeated calls between mutations return the
// same instance, so snapshot identity doubles as a cheap change check.
//
// The common case — no mutation since the last call — is a single atomic
// load, so concurrent readers resolving snapshots per request do not
// serialize on the store mutex. A reader racing a writer may observe the
// immediately preceding version; that is the same outcome as having
// resolved a moment earlier.
func (s *Store) Snapshot() *Snapshot {
	if snap := s.cur.Load(); snap != nil {
		return snap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap == nil {
		s.snap = &Snapshot{
			base:     s.base,
			patched:  s.patched,
			n:        s.n,
			m:        s.m,
			fp:       s.fp,
			epoch:    s.epoch,
			window:   s.log,
			fpWindow: s.fpLog,
			windowFP: s.windowFP,
		}
		// The snapshot now shares the patched map (even an empty one), so
		// the next mutation must clone it before writing.
		s.sealed = true
	}
	s.cur.Store(s.snap)
	return s.snap
}

// Compact folds the delta overlay back into a fresh base CSR, clears the
// log, and restores the canonical content fingerprint (the one a fresh
// load of the same edge set would have), so cache identities converge
// across mutation histories. Existing snapshots are unaffected. Returns
// the snapshot of the compacted graph.
//
// On a durable store, Compact is also the checkpoint: the materialized CSR
// is written to disk atomically and the WAL rotates to a fresh (empty) log.
// If the checkpoint cannot be committed, Compact returns the error and
// changes nothing — neither the in-memory state nor the on-disk pair — so
// the store keeps serving (and recovering) the pre-compaction version. A
// successful durable Compact also clears a sticky WAL failure, since the
// dead log has been replaced. Memory-only stores never return an error.
func (s *Store) Compact() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.log) > 0 {
		g, err := materialize(s.base, s.patched, s.m)
		if err != nil {
			panic(fmt.Sprintf("store: overlay invariant violated: %v", err))
		}
		if s.dir != "" {
			if err := s.rotateLocked(g); err != nil {
				return nil, fmt.Errorf("store: compact: %w", err)
			}
		}
		s.base = g
		s.patched = make(map[int32][]int32)
		s.fp = graphio.FingerprintOf(g)
		s.log = nil
		s.fpLog = nil
		s.windowFP = s.fp
		s.compactions++
		s.sealed = false
		s.snap = nil
		s.cur.Store(nil)
	} else if s.dir != "" && s.werr != nil {
		// Nothing to fold (the failed WAL never acknowledged anything), but
		// the log file is dead: rotate onto a fresh one so the store can
		// accept writes again. An empty log implies an empty overlay, so the
		// current base IS the current graph.
		if err := s.rotateLocked(s.base); err != nil {
			return nil, fmt.Errorf("store: compact: %w", err)
		}
	}
	if s.snap == nil {
		s.snap = &Snapshot{
			base: s.base, patched: s.patched, n: s.n, m: s.m, fp: s.fp, epoch: s.epoch,
			window: s.log, fpWindow: s.fpLog, windowFP: s.windowFP,
		}
		s.sealed = true
	}
	s.cur.Store(s.snap)
	return s.snap, nil
}

// materialize builds a validated CSR graph from base + overlay.
func materialize(base *graph.Graph, patched map[int32][]int32, m int) (*graph.Graph, error) {
	n := base.N()
	offsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		deg := base.Degree(v)
		if l, ok := patched[int32(v)]; ok {
			deg = len(l)
		}
		offsets[v+1] = offsets[v] + int32(deg)
	}
	adj := make([]int32, offsets[n])
	for v := 0; v < n; v++ {
		nb := base.Neighbors(v)
		if l, ok := patched[int32(v)]; ok {
			nb = l
		}
		copy(adj[offsets[v]:offsets[v+1]], nb)
	}
	g, err := graph.FromCSR(offsets, adj)
	if err != nil {
		return nil, err
	}
	if g.M() != m {
		return nil, fmt.Errorf("store: edge count drifted: overlay says %d, CSR says %d", m, g.M())
	}
	return g, nil
}

// Snapshot is an immutable view of a store at one version: a base CSR plus
// a frozen overlay. It implements graph.View, so traversal-shaped reads
// (balls, point queries) run directly on the overlay; Graph lazily
// materializes a full CSR once for algorithm runs that need the concrete
// representation. Safe for concurrent use.
type Snapshot struct {
	base    *graph.Graph
	patched map[int32][]int32
	n, m    int
	fp      graphio.Fingerprint
	epoch   uint64

	// Ancestry: the delta window this snapshot sits at the end of. window
	// holds the deltas applied since the last Compact, fpWindow[i] is the
	// fingerprint after window[i], and windowFP is the fingerprint at the
	// window start. The slices are append-only in the owning store, so the
	// captured headers stay internally consistent forever.
	window   []Delta
	fpWindow []graphio.Fingerprint
	windowFP graphio.Fingerprint

	once sync.Once
	g    *graph.Graph
}

var _ graph.View = (*Snapshot)(nil)

// N returns the vertex count.
func (s *Snapshot) N() int { return s.n }

// M returns the edge count at this version.
func (s *Snapshot) M() int { return s.m }

// Epoch returns the store epoch this snapshot was taken at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Fingerprint returns the snapshot's identity: the canonical content
// fingerprint if no mutations are pending, the incremental chain value
// otherwise.
func (s *Snapshot) Fingerprint() graphio.Fingerprint { return s.fp }

// Degree returns the degree of v at this version.
func (s *Snapshot) Degree(v int) int {
	if l, ok := s.patched[int32(v)]; ok {
		return len(l)
	}
	return s.base.Degree(v)
}

// Neighbors returns v's sorted adjacency at this version. The slice
// aliases snapshot storage and must not be modified.
func (s *Snapshot) Neighbors(v int) []int32 {
	if l, ok := s.patched[int32(v)]; ok {
		return l
	}
	return s.base.Neighbors(v)
}

// HasEdge reports whether {u, v} is an edge at this version.
func (s *Snapshot) HasEdge(u, v int) bool {
	return contains(s.Neighbors(u), int32(v))
}

// Ball returns N^k(v) at this version in BFS order, straight off the
// overlay (no materialization). The search runs on a pooled traversal
// workspace; only the returned slice is allocated, and the caller owns it.
func (s *Snapshot) Ball(v, k int) []int32 {
	pw := graph.AcquireParWorkspace()
	ball := slices.Clone(graph.ParBall(pw, s, v, k, nil, 1))
	graph.ReleaseParWorkspace(pw)
	return ball
}

// Ancestor is an earlier version of a snapshot's store, reachable by
// rewinding pending deltas: applying Deltas (in order) to the graph with
// identity Fingerprint reproduces the snapshot's edge set.
type Ancestor struct {
	// Fingerprint is the ancestor version's cache identity.
	Fingerprint graphio.Fingerprint
	// Deltas is the suffix of the delta window separating the ancestor from
	// the snapshot. The slice aliases store history and must not be modified.
	Deltas []Delta
}

// Ancestry returns the snapshot's ancestors within the current delta
// window, newest first (i.e. fewest separating deltas first), at most max
// entries. The snapshot itself is not included. Ancestors never cross a
// Compact: compaction folds the window and restores the canonical
// fingerprint, so there is nothing to rewind through. The walk is O(max)
// — slice arithmetic over history captured at snapshot time.
func (s *Snapshot) Ancestry(max int) []Ancestor {
	l := len(s.window)
	if max > l {
		max = l
	}
	if max <= 0 {
		return nil
	}
	out := make([]Ancestor, 0, max)
	for j := l - 1; j >= l-max; j-- {
		fp := s.windowFP
		if j > 0 {
			fp = s.fpWindow[j-1]
		}
		out = append(out, Ancestor{Fingerprint: fp, Deltas: s.window[j:]})
	}
	return out
}

// Graph materializes the snapshot as a concrete CSR graph, at most once
// (subsequent calls return the same instance). A snapshot with no overlay
// returns the base graph without copying.
func (s *Snapshot) Graph() *graph.Graph {
	s.once.Do(func() {
		if len(s.patched) == 0 {
			s.g = s.base
			return
		}
		g, err := materialize(s.base, s.patched, s.m)
		if err != nil {
			panic(fmt.Sprintf("store: overlay invariant violated: %v", err))
		}
		s.g = g
	})
	return s.g
}
