package local

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/obs"
)

// floodMachine implements distributed BFS from a root: the root announces
// distance 0 in round 1, everyone else adopts 1 + min(received) once and
// propagates. Each machine halts after a fixed horizon of rounds.
type floodMachine struct {
	v       int
	root    int
	horizon int
	dist    int
	sent    bool
	degree  int
}

type distMsg int

func (m distMsg) SizeBits() int { return 32 }

func (f *floodMachine) Round(round int, inbox []Message) ([]Message, bool) {
	if f.dist == -1 {
		best := -1
		for _, msg := range inbox {
			if msg == nil {
				continue
			}
			d := int(msg.(distMsg))
			if best == -1 || d < best {
				best = d
			}
		}
		if best >= 0 {
			f.dist = best + 1
		}
	}
	var out []Message
	if f.dist >= 0 && !f.sent {
		f.sent = true
		out = make([]Message, f.degree)
		for i := range out {
			out[i] = distMsg(f.dist)
		}
	}
	return out, round >= f.horizon
}

func runFlood(t *testing.T, g *graph.Graph, root int, sequential bool) []int {
	t.Helper()
	n := g.N()
	machines := make([]*floodMachine, n)
	cfg := Config{
		Graph: g,
		NewMachine: func(v int) Machine {
			m := &floodMachine{v: v, root: root, horizon: n + 2, dist: -1, degree: g.Degree(v)}
			if v == root {
				m.dist = 0
			}
			machines[v] = m
			return m
		},
		Sequential: sequential,
		MaxRounds:  n + 10,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := make([]int, n)
	for v, m := range machines {
		out[v] = m.dist
	}
	return out
}

func TestFloodMatchesBFS(t *testing.T) {
	g := gen.Grid(8, 9)
	dist := runFlood(t, g, 0, true)
	want := g.BFS(0)
	for v := range dist {
		if dist[v] != int(want[v]) {
			t.Fatalf("vertex %d: flood=%d bfs=%d", v, dist[v], want[v])
		}
	}
}

func TestParallelEqualsSequential(t *testing.T) {
	g := gen.Torus(10, 10)
	seq := runFlood(t, g, 17, true)
	par := runFlood(t, g, 17, false)
	for v := range seq {
		if seq[v] != par[v] {
			t.Fatalf("executor divergence at vertex %d: %d vs %d", v, seq[v], par[v])
		}
	}
}

func TestDisconnectedStaysUnreached(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	dist := runFlood(t, g, 0, true)
	if dist[2] != -1 || dist[4] != -1 {
		t.Fatalf("flood crossed components: %v", dist)
	}
}

func TestStatsCounting(t *testing.T) {
	g := gen.Path(5)
	var stats Stats
	cfg := Config{
		Graph: g,
		NewMachine: func(v int) Machine {
			m := &floodMachine{v: v, root: 0, horizon: 6, dist: -1, degree: g.Degree(v)}
			if v == 0 {
				m.dist = 0
			}
			return m
		},
		Sequential: true,
	}
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 6 {
		t.Fatalf("rounds = %d, want 6 (horizon)", stats.Rounds)
	}
	// Each vertex sends to all neighbors exactly once; path has 8 directed
	// messages, but messages to already-halted machines are dropped and the
	// last vertex's send happens at round 5 before anyone halts, so all 8
	// arrive.
	if stats.Messages != 8 {
		t.Fatalf("messages = %d, want 8", stats.Messages)
	}
	if stats.MaxMessageBits != 32 {
		t.Fatalf("max message bits = %d", stats.MaxMessageBits)
	}
	if !stats.CongestOK {
		t.Fatal("32-bit messages should satisfy CONGEST")
	}
}

// bigMsg violates the CONGEST bound.
type bigMsg struct{}

func (bigMsg) SizeBits() int { return 1 << 20 }

type bigSender struct{ degree int }

func (b *bigSender) Round(round int, inbox []Message) ([]Message, bool) {
	out := make([]Message, b.degree)
	for i := range out {
		out[i] = bigMsg{}
	}
	return out, true
}

func TestCongestAudit(t *testing.T) {
	g := gen.Path(3)
	stats, err := Run(Config{
		Graph:      g,
		NewMachine: func(v int) Machine { return &bigSender{degree: g.Degree(v)} },
		Sequential: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CongestOK {
		t.Fatal("megabit messages passed the CONGEST audit")
	}
}

// neverHalt runs forever.
type neverHalt struct{}

func (neverHalt) Round(int, []Message) ([]Message, bool) { return nil, false }

func TestMaxRounds(t *testing.T) {
	g := gen.Path(3)
	_, err := Run(Config{
		Graph:      g,
		NewMachine: func(int) Machine { return neverHalt{} },
		MaxRounds:  7,
		Sequential: true,
	})
	if !errors.Is(err, ErrNoHalt) {
		t.Fatalf("err = %v, want ErrNoHalt", err)
	}
}

func TestNilGraph(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// lateActor is silent until a target round, then halts; exercises the
// "waiting silently is legal" semantics.
type lateActor struct {
	target int
	acted  *bool
}

func (l *lateActor) Round(round int, inbox []Message) ([]Message, bool) {
	if round >= l.target {
		*l.acted = true
		return nil, true
	}
	return nil, false
}

func TestSilentWaitingIsAllowed(t *testing.T) {
	g := gen.Path(2)
	acted := make([]bool, 2)
	stats, err := Run(Config{
		Graph: g,
		NewMachine: func(v int) Machine {
			return &lateActor{target: 5 + v, acted: &acted[v]}
		},
		Sequential: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !acted[0] || !acted[1] {
		t.Fatal("late actors never acted")
	}
	if stats.Rounds != 6 {
		t.Fatalf("rounds = %d, want 6", stats.Rounds)
	}
}

func TestRoundCounterPhases(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerOptions{RingSize: 1})
	ctx, tr := tracer.Start(context.Background(), "run")
	ph := NewPhases(ctx)
	ph.Start("gather")
	ph.Charge(5)
	ph.Charge(3)
	ph.Charge(9) // parallel: max = 9
	ph.Start("decide")
	ph.Charge(2)
	ph.Start("idle")
	if got := ph.Total(); got != 11 {
		t.Fatalf("total = %d, want 11", got)
	}
	tr.Finish(0)
	// Every phase is stamped into the trace with its own rounds; a phase
	// that charged nothing records zero.
	s := tracer.Recent(1)[0]
	if len(s.Phases) != 3 {
		t.Fatalf("phases: %+v", s.Phases)
	}
	for i, want := range []struct {
		name   string
		rounds int
	}{{"gather", 9}, {"decide", 2}, {"idle", 0}} {
		if got := s.Phases[i]; got.Name != want.name || got.Rounds != want.rounds {
			t.Fatalf("phase %d = %+v, want %s with %d rounds", i, got, want.name, want.rounds)
		}
	}
}

func TestRoundCounterSequentialCharges(t *testing.T) {
	// A sequential step is a phase with one charge: the charges add.
	ph := NewPhases(context.Background())
	ph.Start("first")
	ph.Charge(4)
	ph.Start("second")
	ph.Charge(6)
	if got := ph.Total(); got != 10 {
		t.Fatalf("total = %d, want 10", got)
	}
}

func TestRoundCounterAutoClose(t *testing.T) {
	ph := NewPhases(context.Background())
	ph.Start("a")
	ph.Charge(7)
	ph.Start("b") // closes a
	ph.Charge(2)
	if got := ph.Total(); got != 9 { // closes b
		t.Fatalf("total = %d, want 9", got)
	}
	if got := ph.Total(); got != 9 {
		t.Fatalf("second Total = %d, want 9: a closed phase must not count twice", got)
	}
	ph2 := NewPhases(context.Background())
	ph2.Start("neg")
	ph2.Charge(-5) // negative charges ignored
	if ph2.Total() != 0 {
		t.Fatal("negative charge counted")
	}
}

func BenchmarkFloodTorusParallel(b *testing.B) {
	g := gen.Torus(40, 40)
	for i := 0; i < b.N; i++ {
		n := g.N()
		_, err := Run(Config{
			Graph: g,
			NewMachine: func(v int) Machine {
				m := &floodMachine{v: v, root: 0, horizon: 45, dist: -1, degree: g.Degree(v)}
				if v == 0 {
					m.dist = 0
				}
				return m
			},
			MaxRounds: n,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
