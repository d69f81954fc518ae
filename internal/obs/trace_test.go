package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestTracePhasesAndLabels(t *testing.T) {
	tr8 := NewTracer(TracerOptions{RingSize: 8})
	ctx, tr := tr8.Start(context.Background(), "run")
	if FromContext(ctx) != tr {
		t.Fatal("context does not carry the trace")
	}
	tr.SetRequest("changli", "changli|eps=0.3", "deadbeef")
	end := StartPhase(ctx, "estimate")
	time.Sleep(2 * time.Millisecond)
	end()
	idx := tr.OpenPhase("carve-1")
	time.Sleep(time.Millisecond)
	tr.ClosePhase(idx, 12)
	tr.Finish(200)
	tr.Finish(500) // idempotent: second call must not re-record

	if got := tr8.Finished(); got != 1 {
		t.Fatalf("finished = %d want 1", got)
	}
	recent := tr8.Recent(0)
	if len(recent) != 1 {
		t.Fatalf("recent = %d want 1", len(recent))
	}
	s := recent[0]
	if s.Algo != "changli" || s.Key != "changli|eps=0.3" || s.Snapshot != "deadbeef" {
		t.Fatalf("labels not recorded: %+v", s)
	}
	if s.Status != 200 {
		t.Fatalf("status = %d want 200 (Finish must be idempotent)", s.Status)
	}
	if len(s.Phases) != 2 || s.Phases[0].Name != "estimate" || s.Phases[1].Name != "carve-1" ||
		s.Phases[0].Rounds != 0 || s.Phases[1].Rounds != 12 {
		t.Fatalf("phases: %+v", s.Phases)
	}
	if s.Phases[0].Dur <= 0 || s.Phases[1].Offset <= s.Phases[0].Offset {
		t.Fatalf("phase timing wrong: %+v", s.Phases)
	}
	var phaseSum time.Duration
	for _, ph := range s.Phases {
		phaseSum += ph.Dur
	}
	if phaseSum > s.Total {
		t.Fatalf("sequential phases exceed total: %v > %v", phaseSum, s.Total)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.SetRequest("a", "b", "c")
	tr.ClosePhase(tr.OpenPhase("x"), 3)
	tr.Finish(0)
	if got := FromContext(context.Background()); got != nil {
		t.Fatal("background context must carry no trace")
	}
	StartPhase(context.Background(), "noop")()
}

func TestRingBounded(t *testing.T) {
	tracer := NewTracer(TracerOptions{RingSize: 4})
	for i := 0; i < 10; i++ {
		_, tr := tracer.Start(context.Background(), "op")
		tr.Finish(i)
	}
	recent := tracer.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d want 4", len(recent))
	}
	// Newest first: statuses 9,8,7,6.
	for i, s := range recent {
		if s.Status != 9-i {
			t.Fatalf("recent[%d].Status = %d want %d", i, s.Status, 9-i)
		}
	}
	if got := tracer.Recent(2); len(got) != 2 || got[0].Status != 9 {
		t.Fatalf("Recent(2) = %+v", got)
	}
}

func TestPhaseCapDropsExcess(t *testing.T) {
	tracer := NewTracer(TracerOptions{RingSize: 1})
	ctx, tr := tracer.Start(context.Background(), "op")
	for i := 0; i < maxPhasesPerTrace+10; i++ {
		StartPhase(ctx, "p")()
	}
	tr.Finish(0)
	s := tracer.Recent(1)[0]
	if len(s.Phases) != maxPhasesPerTrace || s.Dropped != 10 {
		t.Fatalf("phases=%d dropped=%d", len(s.Phases), s.Dropped)
	}
}

func TestSlowThresholdGatesLog(t *testing.T) {
	var sb strings.Builder
	sl := NewSlowLog(&sb)
	tracer := NewTracer(TracerOptions{RingSize: 8, SlowLog: sl, SlowThreshold: 5 * time.Millisecond})

	_, fast := tracer.Start(context.Background(), "fast")
	fast.Finish(200)

	ctx, slow := tracer.Start(context.Background(), "slow")
	end := StartPhase(ctx, "compute")
	time.Sleep(8 * time.Millisecond)
	end()
	slow.SetRequest("changli", "k", "fp")
	slow.Finish(200)

	if tracer.Slow() != 1 || sl.Events() != 1 {
		t.Fatalf("slow=%d events=%d, want 1/1", tracer.Slow(), sl.Events())
	}
	line := sb.String()
	if strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one NDJSON line, got %q", line)
	}
	for _, want := range []string{`"name":"slow"`, `"algo":"changli"`, `"phases":[{"name":"compute"`} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow log line missing %s: %s", want, line)
		}
	}
}

func TestZeroThresholdLogsEverything(t *testing.T) {
	var sb strings.Builder
	tracer := NewTracer(TracerOptions{SlowLog: NewSlowLog(&sb)})
	for i := 0; i < 3; i++ {
		_, tr := tracer.Start(context.Background(), "op")
		tr.Finish(0)
	}
	if got := strings.Count(sb.String(), "\n"); got != 3 {
		t.Fatalf("zero threshold must log all traces, got %d lines", got)
	}
}
