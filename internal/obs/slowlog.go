package obs

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Event is one slow-query record: which request, what work it named, and
// where the time went. Serialized as a single NDJSON line by AppendEvent.
type Event struct {
	UnixNanos int64 // wall-clock completion time
	TraceID   uint64
	Name      string // endpoint or operation name
	Algo      string // algorithm name, e.g. "changli"
	Key       string // canonical cache key
	Snapshot  string // snapshot fingerprint (hex)
	Status    int
	TotalNS   int64
	Phases    []Phase
}

func eventFromSnapshot(s TraceSnapshot) Event {
	return Event{
		UnixNanos: s.Start.Add(s.Total).UnixNano(),
		TraceID:   s.ID,
		Name:      s.Name,
		Algo:      s.Algo,
		Key:       s.Key,
		Snapshot:  s.Snapshot,
		Status:    s.Status,
		TotalNS:   int64(s.Total),
		Phases:    s.Phases,
	}
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal (including the
// surrounding quotes). It escapes quotes, backslashes, and control bytes,
// and replaces invalid UTF-8 with U+FFFD so the output is always valid
// JSON regardless of input.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			switch {
			case b == '"':
				buf = append(buf, '\\', '"')
			case b == '\\':
				buf = append(buf, '\\', '\\')
			case b >= 0x20:
				buf = append(buf, b)
			case b == '\n':
				buf = append(buf, '\\', 'n')
			case b == '\r':
				buf = append(buf, '\\', 'r')
			case b == '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, `�`...)
			i++
			continue
		}
		buf = append(buf, s[i:i+size]...)
		i += size
	}
	return append(buf, '"')
}

// AppendEvent appends ev encoded as one JSON object (no trailing newline)
// to buf and returns the extended buffer. The encoding is hand-rolled so
// the hot path allocates nothing beyond buf growth; the output is always
// one syntactically valid JSON object.
func AppendEvent(buf []byte, ev Event) []byte {
	buf = append(buf, `{"ts":`...)
	buf = appendJSONString(buf, time.Unix(0, ev.UnixNanos).UTC().Format(time.RFC3339Nano))
	buf = append(buf, `,"trace":`...)
	buf = strconv.AppendUint(buf, ev.TraceID, 10)
	buf = append(buf, `,"name":`...)
	buf = appendJSONString(buf, ev.Name)
	if ev.Algo != "" {
		buf = append(buf, `,"algo":`...)
		buf = appendJSONString(buf, ev.Algo)
	}
	if ev.Key != "" {
		buf = append(buf, `,"key":`...)
		buf = appendJSONString(buf, ev.Key)
	}
	if ev.Snapshot != "" {
		buf = append(buf, `,"snapshot":`...)
		buf = appendJSONString(buf, ev.Snapshot)
	}
	buf = append(buf, `,"status":`...)
	buf = strconv.AppendInt(buf, int64(ev.Status), 10)
	buf = append(buf, `,"total_ns":`...)
	buf = strconv.AppendInt(buf, ev.TotalNS, 10)
	buf = append(buf, `,"phases":[`...)
	for i, ph := range ev.Phases {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"name":`...)
		buf = appendJSONString(buf, ph.Name)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, int64(ph.Offset), 10)
		buf = append(buf, `,"dur_ns":`...)
		buf = strconv.AppendInt(buf, int64(ph.Dur), 10)
		if ph.Rounds != 0 {
			buf = append(buf, `,"rounds":`...)
			buf = strconv.AppendInt(buf, int64(ph.Rounds), 10)
		}
		buf = append(buf, '}')
	}
	return append(buf, `]}`...)
}

// SlowLog serializes Events as NDJSON lines onto a writer. Safe for
// concurrent use; each Record writes exactly one line.
type SlowLog struct {
	mu     sync.Mutex
	w      io.Writer
	buf    []byte
	events atomic.Uint64
	errs   atomic.Uint64
}

// NewSlowLog returns a SlowLog writing NDJSON lines to w.
func NewSlowLog(w io.Writer) *SlowLog {
	return &SlowLog{w: w}
}

// Record encodes and writes one event. Write errors are counted, not
// propagated: losing a slow-log line must never fail a request.
func (l *SlowLog) Record(ev Event) {
	l.mu.Lock()
	l.buf = AppendEvent(l.buf[:0], ev)
	l.buf = append(l.buf, '\n')
	_, err := l.w.Write(l.buf)
	l.mu.Unlock()
	l.events.Add(1)
	if err != nil {
		l.errs.Add(1)
	}
}

// Events reports how many events have been recorded.
func (l *SlowLog) Events() uint64 { return l.events.Load() }

// WriteErrors reports how many event writes failed.
func (l *SlowLog) WriteErrors() uint64 { return l.errs.Load() }
