package store

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/graphio"
)

// Replication: a store doubles as either end of a delta-log stream. The
// owner side exports the pending window with DeltasSince — each entry
// carries the epoch it was applied at and the fingerprint the chain reached
// after it — and the replica side applies entries with ApplyReplicated,
// which refuses anything that does not extend its own chain exactly. The
// fingerprint chain (graphio.NextFingerprint) is history-sensitive, so a
// replica that verifies every link holds a graph bit-identical to the
// owner's, with the same cache identity at every epoch.
//
// Compaction truncates the window; a replica whose cursor predates the
// window start cannot be caught up by deltas (DeltasSince reports ok=false)
// and must resync from a checkpoint of the owner's current state
// (NewReplicaAt), then resume streaming from that epoch.

// DeltaEntry is one replicable mutation: a Delta plus the fingerprint the
// owner's chain reached after applying it. Replicas recompute the link and
// refuse the entry on mismatch, so a diverged replica can never silently
// accept a delta.
type DeltaEntry struct {
	Op    Op
	U, V  int32
	Epoch uint64
	// Fingerprint is the chain value after this delta was applied.
	Fingerprint graphio.Fingerprint
}

// EpochGapError reports a replicated delta that does not directly extend
// the store's current epoch: the store is at Have, the delta is stamped
// Want (which must be Have+1 to apply). The caller decides whether to pull
// the missing range or resync from a checkpoint.
type EpochGapError struct {
	Have, Want uint64
}

func (e *EpochGapError) Error() string {
	return fmt.Sprintf("store: replication epoch gap: store at %d, delta stamped %d", e.Have, e.Want)
}

// DeltasSince exports the delta entries with epochs in (since, Epoch()],
// pairing each delta with its chain fingerprint. ok is false when the
// cursor falls outside the current window — either Compact folded the
// requested range away, or the cursor is ahead of this store — in which
// case the caller must resync from a checkpoint instead of streaming.
func (s *Store) DeltasSince(since uint64) (entries []DeltaEntry, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.epoch - uint64(len(s.log))
	if since < start || since > s.epoch {
		return nil, false
	}
	if since == s.epoch {
		return nil, true
	}
	idx := int(since - start)
	entries = make([]DeltaEntry, 0, len(s.log)-idx)
	for i := idx; i < len(s.log); i++ {
		d := s.log[i]
		entries = append(entries, DeltaEntry{
			Op: d.Op, U: d.U, V: d.V, Epoch: d.Epoch, Fingerprint: s.fpLog[i],
		})
	}
	return entries, true
}

// ApplyReplicated applies one owner-shipped delta to this store, verifying
// both the epoch sequence (the entry must be stamped Epoch()+1, else an
// *EpochGapError) and the fingerprint chain (the recomputed link must equal
// the entry's, else the replica has diverged and the entry is refused).
// Verification happens before any state changes, so a refused entry leaves
// the store untouched. A delta that does not apply cleanly (adding a
// present edge, deleting an absent one) is refused as divergence: the owner
// only ships deltas that were applied, never no-ops.
func (s *Store) ApplyReplicated(e DeltaEntry) error {
	u, v := int(e.U), int(e.V)
	if u > v {
		u, v = v, u
	}
	if u == v || u < 0 || v >= s.n {
		return fmt.Errorf("store: replicated delta has invalid edge {%d, %d} (n=%d)", e.U, e.V, s.n)
	}
	if e.Op != OpAdd && e.Op != OpDel {
		return fmt.Errorf("store: replicated delta has unknown op %d", e.Op)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Epoch != s.epoch+1 {
		return &EpochGapError{Have: s.epoch, Want: e.Epoch}
	}
	if want := graphio.NextFingerprint(s.fp, byte(e.Op), int32(u), int32(v)); want != e.Fingerprint {
		return fmt.Errorf("store: fingerprint chain mismatch at epoch %d: replica would reach %s, owner shipped %s",
			e.Epoch, want.Short(), e.Fingerprint.Short())
	}
	present := contains(s.neighbors(int32(u)), int32(v))
	if e.Op == OpAdd && present {
		return fmt.Errorf("store: replicated add of present edge {%d, %d} at epoch %d (replica diverged)", u, v, e.Epoch)
	}
	if e.Op == OpDel && !present {
		return fmt.Errorf("store: replicated delete of absent edge {%d, %d} at epoch %d (replica diverged)", u, v, e.Epoch)
	}
	if err := s.logDelta(e.Op, u, v); err != nil {
		return err
	}
	s.prepareWrite()
	if e.Op == OpAdd {
		s.patched[int32(u)] = insertSorted(s.neighbors(int32(u)), int32(v))
		s.patched[int32(v)] = insertSorted(s.neighbors(int32(v)), int32(u))
		s.m++
		s.adds++
	} else {
		s.patched[int32(u)] = removeSorted(s.neighbors(int32(u)), int32(v))
		s.patched[int32(v)] = removeSorted(s.neighbors(int32(v)), int32(u))
		s.m--
		s.dels++
	}
	s.applyDelta(e.Op, u, v)
	return nil
}

// NewReplicaAt wraps a checkpointed graph (retained, must not be mutated by
// the caller) as a replica store positioned at the owner's epoch and chain
// fingerprint, so subsequent ApplyReplicated calls extend the owner's chain
// exactly. The fingerprint is taken on trust — a mid-window chain value
// cannot be recomputed from the edge set alone — but every delta applied
// after the install re-verifies the chain, so divergence cannot compound.
func NewReplicaAt(g *graph.Graph, epoch uint64, fp graphio.Fingerprint) *Store {
	s := New(g)
	s.epoch = epoch
	s.fp = fp
	s.windowFP = fp
	return s
}
