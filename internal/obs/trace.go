package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// maxPhasesPerTrace bounds per-trace memory; phases past the cap are
// counted in Trace.Dropped instead of stored.
const maxPhasesPerTrace = 256

// Phase is one named, timed span inside a trace. Offset is measured from
// the trace start; Dur is zero until the phase is closed. Rounds is the
// number of LOCAL rounds the algorithm charged to the phase (see
// local.Phases); it is zero, and omitted from the JSON, for phases that
// charge none, such as the engine's.
type Phase struct {
	Name   string        `json:"name"`
	Offset time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Rounds int           `json:"rounds,omitempty"`
}

// Trace is one request's span record: a request ID, coarse labels
// identifying the work (algorithm, canonical cache key, snapshot
// fingerprint), and an append-only list of named phases with nanosecond
// timestamps. A nil *Trace is valid and all methods are no-ops, so callers
// can thread traces unconditionally.
type Trace struct {
	tracer *Tracer

	ID    uint64
	Name  string
	Start time.Time

	mu       sync.Mutex
	algo     string
	key      string
	snapshot string
	phases   []Phase
	dropped  int
	total    time.Duration
	status   int
	finished bool
}

type traceCtxKey struct{}

// WithTrace returns a context carrying tr.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil. The nil return is
// the common fast path: untraced requests pay one context lookup and
// nothing else.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return tr
}

var noopEnd = func() {}

// StartPhase opens a named phase on the trace in ctx and returns its
// closer; it is for phases that charge no LOCAL rounds. When ctx carries
// no trace it returns a shared no-op. Phases may overlap (concurrent
// shards each opening their own) and may be left unclosed on error paths
// — an unclosed phase simply reports Dur 0.
func StartPhase(ctx context.Context, name string) func() {
	tr := FromContext(ctx)
	idx := tr.OpenPhase(name)
	if idx < 0 {
		return noopEnd
	}
	return func() { tr.ClosePhase(idx, 0) }
}

// OpenPhase opens a named phase and returns the handle ClosePhase takes.
// It returns -1, a handle ClosePhase ignores, when tr is nil or the trace
// already holds its cap of phases.
func (tr *Trace) OpenPhase(name string) int {
	if tr == nil {
		return -1
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.phases) >= maxPhasesPerTrace {
		tr.dropped++
		return -1
	}
	tr.phases = append(tr.phases, Phase{Name: name, Offset: time.Since(tr.Start)})
	return len(tr.phases) - 1
}

// ClosePhase closes the phase idx that OpenPhase returned, stamping its
// duration and the LOCAL rounds charged to it.
func (tr *Trace) ClosePhase(idx, rounds int) {
	if tr == nil || idx < 0 {
		return
	}
	tr.mu.Lock()
	ph := &tr.phases[idx]
	ph.Dur = time.Since(tr.Start) - ph.Offset
	ph.Rounds = rounds
	tr.mu.Unlock()
}

// SetRequest attaches the work labels: algorithm name, canonical cache
// key, and snapshot fingerprint. Later calls win, so the deepest layer
// that knows the true identity (the engine) stamps it.
func (tr *Trace) SetRequest(algo, key, snapshot string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.algo, tr.key, tr.snapshot = algo, key, snapshot
	tr.mu.Unlock()
}

// Finish closes the trace with a status code (HTTP status, or 0 for
// in-process callers), pushes it into the tracer's ring of recent traces,
// and emits a slow-log event if the total latency crossed the tracer's
// threshold. Finish is idempotent; only the first call records.
func (tr *Trace) Finish(status int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return
	}
	tr.finished = true
	tr.total = time.Since(tr.Start)
	tr.status = status
	tr.mu.Unlock()
	tr.tracer.record(tr)
}

// snapshotLocked assumes tr.mu is held.
func (tr *Trace) snapshotLocked() TraceSnapshot {
	s := TraceSnapshot{
		ID:       tr.ID,
		Name:     tr.Name,
		Start:    tr.Start,
		Algo:     tr.algo,
		Key:      tr.key,
		Snapshot: tr.snapshot,
		Total:    tr.total,
		Status:   tr.status,
		Dropped:  tr.dropped,
		Phases:   append([]Phase(nil), tr.phases...),
	}
	return s
}

// TraceSnapshot is an immutable copy of a finished trace, safe to hand to
// encoders and HTTP handlers.
type TraceSnapshot struct {
	ID       uint64        `json:"id"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Algo     string        `json:"algo,omitempty"`
	Key      string        `json:"key,omitempty"`
	Snapshot string        `json:"snapshot,omitempty"`
	Status   int           `json:"status"`
	Total    time.Duration `json:"total_ns"`
	Dropped  int           `json:"dropped_phases,omitempty"`
	Phases   []Phase       `json:"phases"`
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// RingSize bounds the buffer of recent finished traces (default 128).
	RingSize int
	// SlowLog, when non-nil, receives an event for every finished trace
	// whose total latency is >= SlowThreshold.
	SlowLog *SlowLog
	// SlowThreshold gates slow-log emission. Zero means every finished
	// trace is logged (useful for tests and demos).
	SlowThreshold time.Duration
}

// Tracer mints traces and retains a bounded ring of recent ones.
type Tracer struct {
	opts TracerOptions

	seq      atomic.Uint64
	finished atomic.Uint64
	slow     atomic.Uint64

	mu   sync.Mutex
	ring []TraceSnapshot
	next int
}

// NewTracer returns a Tracer with the given options.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = 128
	}
	return &Tracer{opts: opts, ring: make([]TraceSnapshot, 0, opts.RingSize)}
}

// Start mints a new trace named name and returns a derived context
// carrying it. The caller must eventually call Finish on the trace.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Trace) {
	tr := &Trace{
		tracer: t,
		ID:     t.seq.Add(1),
		Name:   name,
		Start:  time.Now(),
	}
	return WithTrace(ctx, tr), tr
}

// Finished reports how many traces have completed.
func (t *Tracer) Finished() uint64 { return t.finished.Load() }

// SlowLog returns the slow log this tracer emits into, or nil.
func (t *Tracer) SlowLog() *SlowLog { return t.opts.SlowLog }

// Slow reports how many finished traces crossed the slow threshold.
func (t *Tracer) Slow() uint64 { return t.slow.Load() }

func (t *Tracer) record(tr *Trace) {
	tr.mu.Lock()
	snap := tr.snapshotLocked()
	tr.mu.Unlock()

	t.finished.Add(1)
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, snap)
	} else {
		t.ring[t.next] = snap
		t.next = (t.next + 1) % cap(t.ring)
	}
	t.mu.Unlock()

	if t.opts.SlowLog != nil && snap.Total >= t.opts.SlowThreshold {
		t.slow.Add(1)
		t.opts.SlowLog.Record(eventFromSnapshot(snap))
	}
}

// Recent returns up to n recent finished traces, newest first. n <= 0
// means all retained traces.
func (t *Tracer) Recent(n int) []TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := len(t.ring)
	if n <= 0 || n > total {
		n = total
	}
	out := make([]TraceSnapshot, 0, n)
	// Newest element is just before t.next once the ring has wrapped;
	// before wrapping it is the last appended element.
	for i := 0; i < n; i++ {
		var idx int
		if len(t.ring) < cap(t.ring) {
			idx = total - 1 - i
		} else {
			idx = ((t.next-1-i)%total + total) % total
		}
		out = append(out, t.ring[idx])
	}
	return out
}
