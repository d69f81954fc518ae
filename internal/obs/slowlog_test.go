package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

func decodeEvent(t *testing.T, line []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatalf("encoder output is not valid JSON: %v\n%s", err, line)
	}
	return m
}

func TestAppendEventRoundTrip(t *testing.T) {
	ev := Event{
		UnixNanos: time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC).UnixNano(),
		TraceID:   42,
		Name:      "run",
		Algo:      "changli",
		Key:       `changli|eps=0.3|seed=11`,
		Snapshot:  "deadbeefcafe",
		Status:    200,
		TotalNS:   1_234_567,
		Phases: []Phase{
			{Name: "estimate", Offset: 10, Dur: 100},
			{Name: "carve-1", Offset: 120, Dur: 900, Rounds: 37},
		},
	}
	out := AppendEvent(nil, ev)
	m := decodeEvent(t, out)
	if m["name"] != "run" || m["algo"] != "changli" || m["snapshot"] != "deadbeefcafe" {
		t.Fatalf("fields lost: %v", m)
	}
	if m["trace"].(float64) != 42 || m["status"].(float64) != 200 || m["total_ns"].(float64) != 1234567 {
		t.Fatalf("numeric fields lost: %v", m)
	}
	phases := m["phases"].([]any)
	if len(phases) != 2 {
		t.Fatalf("phases: %v", phases)
	}
	p0 := phases[0].(map[string]any)
	if p0["name"] != "estimate" || p0["start_ns"].(float64) != 10 || p0["dur_ns"].(float64) != 100 {
		t.Fatalf("phase 0: %v", p0)
	}
	if _, ok := p0["rounds"]; ok {
		t.Fatalf("phase 0 charged no rounds but encodes them: %v", p0)
	}
	if p1 := phases[1].(map[string]any); p1["rounds"].(float64) != 37 {
		t.Fatalf("phase 1 rounds: %v", p1)
	}
	if ts, _ := m["ts"].(string); !strings.HasPrefix(ts, "2026-08-08T12:00:00.123456789") {
		t.Fatalf("ts = %v", m["ts"])
	}
}

func TestAppendEventEscaping(t *testing.T) {
	ev := Event{
		Name: "quote\" slash\\ newline\n tab\t ctrl\x01 unicode€ high ",
		Key:  string([]byte{0xff, 0xfe, 'o', 'k'}), // invalid UTF-8
	}
	out := AppendEvent(nil, ev)
	m := decodeEvent(t, out)
	if m["name"] != "quote\" slash\\ newline\n tab\t ctrl\x01 unicode€ high " {
		t.Fatalf("escaped round-trip failed: %q", m["name"])
	}
	if m["key"] != "��ok" {
		t.Fatalf("invalid UTF-8 not replaced: %q", m["key"])
	}
	if strings.ContainsAny(string(out), "\n\r") {
		t.Fatalf("encoded line must not contain raw newlines: %q", out)
	}
}

func TestAppendEventOmitsEmptyLabels(t *testing.T) {
	out := string(AppendEvent(nil, Event{Name: "op"}))
	for _, absent := range []string{`"algo"`, `"key"`, `"snapshot"`} {
		if strings.Contains(out, absent) {
			t.Fatalf("empty label %s must be omitted: %s", absent, out)
		}
	}
	decodeEvent(t, []byte(out))
}

func TestSlowLogConcurrentLines(t *testing.T) {
	var mu safeBuffer
	l := NewSlowLog(&mu)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				l.Record(Event{Name: "op", TraceID: uint64(g*1000 + i)})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if l.Events() != 400 {
		t.Fatalf("events = %d", l.Events())
	}
	lines := strings.Split(strings.TrimSuffix(mu.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("lines = %d want 400", len(lines))
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("interleaved/corrupt line: %v\n%s", err, ln)
		}
	}
}

type safeBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// FuzzSlowLogEncoder: for arbitrary strings and numbers the encoder must
// never panic and must always emit exactly one valid JSON object whose
// string fields round-trip (modulo U+FFFD replacement of invalid UTF-8).
func FuzzSlowLogEncoder(f *testing.F) {
	f.Add("run", "changli", "k|v=1", "fp", int64(123), 200, "phase", 42)
	f.Add("", "", "", "", int64(-1), -7, "", 0)
	f.Add("quote\"", "back\\slash", "new\nline", "\x00\x01", int64(1<<62), 999, "€�", -3)
	f.Add(string([]byte{0xff, 0x80, 0x41}), "ok", "k", "s", int64(0), 0, string([]byte{0xc3, 0x28}), 1<<40)
	f.Fuzz(func(t *testing.T, name, algo, key, snap string, total int64, status int, phase string, rounds int) {
		ev := Event{
			UnixNanos: total, // arbitrary timestamp
			TraceID:   uint64(status),
			Name:      name,
			Algo:      algo,
			Key:       key,
			Snapshot:  snap,
			Status:    status,
			TotalNS:   total,
			Phases:    []Phase{{Name: phase, Offset: time.Duration(total), Dur: time.Duration(status), Rounds: rounds}},
		}
		out := AppendEvent(nil, ev)
		var m map[string]any
		if err := json.Unmarshal(out, &m); err != nil {
			t.Fatalf("invalid JSON: %v\n%q", err, out)
		}
		if strings.ContainsAny(string(out), "\n\r") {
			t.Fatalf("raw newline in encoded line: %q", out)
		}
		if got, _ := m["name"].(string); utf8ValidOrReplaced(name) != got {
			t.Fatalf("name round-trip: %q -> %q", name, got)
		}
		// The phase decodes back into the Phase it came from: rounds is
		// omitted when zero, as encoding/json's omitempty would.
		var back struct{ Phases []Phase }
		if err := json.Unmarshal(out, &back); err != nil || len(back.Phases) != 1 {
			t.Fatalf("phases do not decode: %v %q", err, out)
		}
		want := ev.Phases[0]
		want.Name = utf8ValidOrReplaced(phase)
		if back.Phases[0] != want {
			t.Fatalf("phase round-trip: %+v -> %+v", want, back.Phases[0])
		}
		if _, ok := m["phases"].([]any)[0].(map[string]any)["rounds"]; ok != (rounds != 0) {
			t.Fatalf("rounds %d present=%v: %q", rounds, ok, out)
		}
	})
}

// utf8ValidOrReplaced mirrors the encoder's policy: each invalid byte
// (not each invalid run) becomes one U+FFFD.
func utf8ValidOrReplaced(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(utf8.RuneError)
			i++
			continue
		}
		b.WriteString(s[i : i+size])
		i += size
	}
	return b.String()
}
