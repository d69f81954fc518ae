// Package local implements the LOCAL model of distributed computing
// (Linial 1992) used throughout the paper: a synchronous message-passing
// network where, in each round, every vertex receives the messages sent by
// its neighbors in the previous round, performs arbitrary local computation,
// and sends one (arbitrarily large) message per incident edge.
//
// The package provides two interchangeable executors with identical
// semantics and identical round accounting:
//
//   - a goroutine-per-worker parallel executor, where vertex programs run
//     concurrently between round barriers — the "real" message-passing
//     substrate (the repro hint: goroutines map to message passing);
//   - a sequential executor, useful for deterministic profiling and
//     debugging.
//
// Since vertex programs are deterministic given their random streams, both
// executors produce bit-identical outputs; the ldd package's tests rely on
// this to cross-check the distributed Elkin–Neiman implementation against
// its centralized counterpart.
//
// For the ball-gathering algorithms (grow-and-carve and friends) the
// package also provides Phases, the standard accounting device for LOCAL
// algorithms expressed as "gather N^k(v), then decide locally": a k-radius
// gather costs k rounds, parallel gathers in the same phase cost the
// maximum radius, and a run costs the sum of its phases. Phases also
// stamps each phase, with its rounds, into the obs.Trace the run's context
// carries, so a trace shows each paper phase's rounds next to its time.
package local

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Message is an opaque payload exchanged between neighbors. Implementations
// that want CONGEST auditing should implement Sizer.
type Message interface{}

// Sizer optionally reports a message's size in bits for CONGEST audits.
type Sizer interface {
	SizeBits() int
}

// Machine is a vertex program. The engine calls Round once per synchronous
// round with the messages received from each neighbor (indexed by the
// position in graph.Neighbors; nil when the neighbor sent nothing). The
// returned outbox is indexed the same way (nil entries send nothing; a nil
// or short outbox sends nothing on the remaining edges). Returning
// halt=true removes the machine from subsequent rounds.
type Machine interface {
	Round(round int, inbox []Message) (outbox []Message, halt bool)
}

// Config configures an engine run.
type Config struct {
	Graph *graph.Graph
	// NewMachine constructs the program for vertex v.
	NewMachine func(v int) Machine
	// MaxRounds bounds the execution; 0 means a default of 10 * (n + 10).
	MaxRounds int
	// Sequential forces the single-threaded executor.
	Sequential bool
	// Workers bounds parallel workers; 0 means GOMAXPROCS.
	Workers int
}

// Stats reports what an engine run cost.
type Stats struct {
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// Messages is the total number of (non-nil) messages delivered.
	Messages int64
	// MaxMessageBits is the largest message size observed, when messages
	// implement Sizer; 0 otherwise.
	MaxMessageBits int
	// CongestOK reports whether every sized message fit in O(log n) bits,
	// using the conventional threshold 32 * ceil(log2(n+2)).
	CongestOK bool
}

// ErrNoHalt is returned when MaxRounds elapses before all machines halt.
var ErrNoHalt = errors.New("local: machines did not halt within MaxRounds")

// Run executes the configured network to quiescence and returns statistics.
func Run(cfg Config) (Stats, error) {
	g := cfg.Graph
	if g == nil {
		return Stats{}, errors.New("local: nil graph")
	}
	n := g.N()
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 10 * (n + 10)
	}
	machines := make([]Machine, n)
	for v := 0; v < n; v++ {
		machines[v] = cfg.NewMachine(v)
	}
	// reverseIdx[v][i] = position of v in the neighbor list of its i-th
	// neighbor; needed to route v's i-th outbox entry into the right inbox
	// slot on the other side.
	reverseIdx := make([][]int32, n)
	for v := 0; v < n; v++ {
		nb := g.Neighbors(v)
		reverseIdx[v] = make([]int32, len(nb))
		for i, w := range nb {
			wNb := g.Neighbors(int(w))
			j := sort.Search(len(wNb), func(k int) bool { return wNb[k] >= int32(v) })
			reverseIdx[v][i] = int32(j)
		}
	}

	inboxes := make([][]Message, n)
	outboxes := make([][]Message, n)
	for v := 0; v < n; v++ {
		inboxes[v] = make([]Message, g.Degree(v))
	}
	halted := make([]bool, n)
	haltedCount := 0

	stats := Stats{CongestOK: true}
	logN := 1
	for (1 << logN) < n+2 {
		logN++
	}
	congestLimit := 32 * logN

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Sequential {
		workers = 1
	}

	for round := 1; haltedCount < n; round++ {
		if round > maxRounds {
			return stats, fmt.Errorf("%w (round %d)", ErrNoHalt, maxRounds)
		}
		stats.Rounds = round

		// Step every non-halted machine (possibly in parallel). Each worker
		// writes only outboxes[v] and haltNow[v] for its own vertices, so no
		// locking is needed.
		haltNow := make([]bool, n)
		step := func(v int) {
			if halted[v] {
				outboxes[v] = nil
				return
			}
			out, h := machines[v].Round(round, inboxes[v])
			outboxes[v] = out
			haltNow[v] = h
		}
		if workers == 1 || n < 64 {
			for v := 0; v < n; v++ {
				step(v)
			}
		} else {
			var wg sync.WaitGroup
			chunk := (n + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := min(lo+chunk, n)
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					for v := lo; v < hi; v++ {
						step(v)
					}
				}(lo, hi)
			}
			wg.Wait()
		}

		// Barrier: deliver messages, clear inboxes, apply halts.
		for v := 0; v < n; v++ {
			for i := range inboxes[v] {
				inboxes[v][i] = nil
			}
		}
		for v := 0; v < n; v++ {
			out := outboxes[v]
			if out == nil {
				continue
			}
			nb := g.Neighbors(v)
			for i := 0; i < len(out) && i < len(nb); i++ {
				msg := out[i]
				if msg == nil {
					continue
				}
				w := nb[i]
				// Audit at send time: a message counts against the CONGEST
				// budget even if its receiver halts this round.
				if s, ok := msg.(Sizer); ok {
					bits := s.SizeBits()
					if bits > stats.MaxMessageBits {
						stats.MaxMessageBits = bits
					}
					if bits > congestLimit {
						stats.CongestOK = false
					}
				}
				if halted[w] || haltNow[w] {
					continue // dropped: receiver is done
				}
				inboxes[w][reverseIdx[v][i]] = msg
				stats.Messages++
			}
		}
		// Waiting silently is legitimate in a synchronous model (machines may
		// key behavior off the round number), so quiescence is not an error;
		// only MaxRounds bounds the run.
		for v := 0; v < n; v++ {
			if haltNow[v] && !halted[v] {
				halted[v] = true
				haltedCount++
			}
		}
	}
	return stats, nil
}

// Phases is the round-accounting scope of one LOCAL algorithm run in
// gather-and-decide style. A phase groups operations that run in parallel
// across the network: its cost is the maximum charged within it, and the
// run costs the sum of its phases. A sequential step is a phase of its
// own with one charge. When the context the scope was made from carries an
// obs.Trace, every phase is also a trace phase of the same name that
// records its rounds; untraced, the scope only adds.
type Phases struct {
	tr      *obs.Trace
	idx     int // trace handle of the open phase; -1 when not traced
	current int
	total   int
}

// NewPhases returns an empty scope that traces into ctx's trace, if any.
func NewPhases(ctx context.Context) Phases {
	return Phases{tr: obs.FromContext(ctx), idx: -1}
}

// Start closes the open phase, adding its cost to the total, and opens the
// phase name.
func (ph *Phases) Start(name string) {
	ph.end()
	ph.idx = ph.tr.OpenPhase(name)
}

// Charge records that some vertex performed a k-radius gather (or k
// rounds of communication) in the open phase. Negative charges are
// ignored.
func (ph *Phases) Charge(k int) {
	if k > ph.current {
		ph.current = k
	}
}

// Total closes the open phase and returns the accumulated round count.
func (ph *Phases) Total() int {
	ph.end()
	return ph.total
}

func (ph *Phases) end() {
	ph.total += ph.current
	ph.tr.ClosePhase(ph.idx, ph.current)
	ph.current, ph.idx = 0, -1
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
