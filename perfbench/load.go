package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// endpoint indexes the per-graph URLs a client posts to.
type endpoint int

const (
	epRun endpoint = iota
	epQuery
	epAdd
	epDel
	numEndpoints
)

var endpointNames = [numEndpoints]string{"run", "query", "addedge", "deledge"}

// target is what the clients drive and how they check each answer.
type target struct {
	urls    [numRoles][numEndpoints]string
	keys    []key
	queries []query
	// keyRefs[k] is the validated body of key k, queryRefs[q] that of
	// query q. Both are nil on cold workloads.
	keyRefs   [][]byte
	queryRefs [][]byte
	// mutated is the graph the writes change: reads of its keys are checked
	// by status and snapshot order, and sampled ones decoded after the
	// clock stops.
	mutated role
	// cold, when set, fully checks every /run body right after its op
	// clock stops.
	cold func(k key, body []byte) error
	// more, when set, keeps the clients going past the deadline while it
	// reports true (the cold-solve quality prefix).
	more func() bool
	// afterOp, when set, runs after every op off the op clock (the traced
	// run's ladder bookkeeping).
	afterOp func(o *op, ns int64)
	// ys, when set, is the yardstick each client runs a chunk of after
	// every ysEvery of op time.
	ys *yardstick
}

func newTarget(s *system, p *plan) *target {
	t := &target{keys: p.keys, queries: p.queries, mutated: p.mutated}
	for r := role(0); r < numRoles; r++ {
		if s.ids[r] == "" {
			continue
		}
		for e := endpoint(0); e < numEndpoints; e++ {
			t.urls[r][e] = s.base + "/v1/graphs/" + s.ids[r] + "/" + endpointNames[e]
		}
	}
	return t
}

// sample is one timed op.
type sample struct {
	fam family
	ns  int64
}

// keptBody is a sampled read kept for decoding after the clock stops.
type keptBody struct {
	key  int
	body []byte
}

// writeRec is one acknowledged mutation and its raw response.
type writeRec struct {
	role role
	add  bool
	u, v int32
	body []byte
}

// clientStats is everything one client recorded.
type clientStats struct {
	samples  []sample
	rtNS     int64 // time inside round trips
	loopNS   int64 // wall time of the loop
	ops      int
	bytes    int64 // response bytes of reads
	reads    int
	failed   int
	errs     []string
	snaps    []string // snapshots the mutated graph's reads resolved, in order
	kept     []keptBody
	writeLog []writeRec
	ysNS     []int64 // yardstick chunks
	ysTotal  int64   // time inside yardstick chunks
}

func (c *clientStats) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// leanClient sends pre-encoded bodies and reads raw response bytes into a
// reused buffer: nothing is decoded on the clock.
type leanClient struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newLeanClient() *leanClient {
	return &leanClient{hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *leanClient) post(url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// drive runs one closed-loop client per stream for d and returns what
// each recorded.
func drive(t *target, streams [][]op, d time.Duration) []*clientStats {
	out := make([]*clientStats, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range streams {
		out[i] = &clientStats{samples: make([]sample, 0, len(s))}
		wg.Add(1)
		go func(cs *clientStats, s []op) {
			defer wg.Done()
			c := newLeanClient()
			defer c.hc.CloseIdleConnections()
			c.loop(t, s, cs, start.Add(d))
		}(out[i], s)
	}
	wg.Wait()
	return out
}

func (c *leanClient) loop(t *target, s []op, cs *clientStats, deadline time.Time) {
	t0 := time.Now()
	var ys *ysScratch
	if t.ys != nil {
		ys = newYSScratch()
	}
	sinceYS := int64(0)
	for i := 0; time.Now().Before(deadline) || (t.more != nil && t.more()); i++ {
		o := &s[i%len(s)]
		ns := int64(0)
		switch o.kind {
		case opRun:
			k := &t.keys[o.idx]
			ns = c.read(t, cs, k.fam, t.urls[k.role][epRun], k.body, o, func(body []byte) error {
				switch {
				case t.cold != nil:
					return t.cold(*k, body)
				case k.role == t.mutated:
					return nil
				}
				return sameResult(body, t.keyRefs[o.idx])
			})
		case opQuery:
			q := &t.queries[o.idx]
			ns = c.read(t, cs, q.fam, t.urls[roleBig][epQuery], q.body, o, func(body []byte) error {
				return sameResult(body, t.queryRefs[o.idx])
			})
		case opToggle:
			ns = c.toggle(t, cs, o)
		}
		if t.afterOp != nil {
			t.afterOp(o, ns)
		}
		if sinceYS += ns; ys != nil && sinceYS >= ysEvery.Nanoseconds() {
			sinceYS = 0
			ns, err := t.ys.chunk(c, ys)
			if err != nil {
				cs.fail("%v", err)
				continue
			}
			cs.ysNS = append(cs.ysNS, ns)
			cs.ysTotal += ns
		}
	}
	cs.loopNS = time.Since(t0).Nanoseconds()
}

// read times one read and checks its answer after the clock stops.
func (c *leanClient) read(t *target, cs *clientStats, fam family, url string, body []byte, o *op, check func([]byte) error) int64 {
	t0 := time.Now()
	status, resp, err := c.post(url, body)
	ns := time.Since(t0).Nanoseconds()
	cs.ops++
	cs.reads++
	cs.rtNS += ns
	cs.bytes += int64(len(resp))
	cs.samples = append(cs.samples, sample{fam, ns})
	switch {
	case err != nil:
		cs.fail("%s: %v", body, err)
	case status != http.StatusOK:
		cs.fail("%s: status %d: %.200s", body, status, resp)
	default:
		if o.kind == opRun && t.keys[o.idx].role == t.mutated {
			fp := snapshotOf(resp)
			if fp == "" {
				cs.fail("%s: no snapshot in the response", body)
			}
			cs.snaps = append(cs.snaps, fp)
			if o.sample {
				cs.kept = append(cs.kept, keptBody{o.idx, bytes.Clone(resp)})
			}
		}
		if err := check(resp); err != nil {
			cs.fail("%s: %v", body, err)
		}
	}
	return ns
}

var appliedFalse = []byte(`"applied":false`)

// toggle flips an edge: addedge, then deledge when the add found the edge
// already present. Each mutation is its own timed write.
func (c *leanClient) toggle(t *target, cs *clientStats, o *op) int64 {
	total := int64(0)
	for _, add := range []bool{true, false} {
		ep := epDel
		if add {
			ep = epAdd
		}
		t0 := time.Now()
		status, resp, err := c.post(t.urls[o.role][ep], o.body)
		ns := time.Since(t0).Nanoseconds()
		total += ns
		cs.ops++
		cs.rtNS += ns
		cs.samples = append(cs.samples, sample{famWrite, ns})
		if err != nil || status != http.StatusOK {
			cs.fail("toggle %s: status %d: %v: %.200s", o.body, status, err, resp)
			return total
		}
		cs.writeLog = append(cs.writeLog, writeRec{o.role, add, o.u, o.v, bytes.Clone(resp)})
		if !add || !bytes.Contains(resp, appliedFalse) {
			return total
		}
	}
	return total
}

var snapshotTag = []byte(`"snapshot":"`)

// snapshotOf finds a result's snapshot stamp without decoding the body:
// the field comes before the bulky arrays.
func snapshotOf(body []byte) string {
	i := bytes.Index(body, snapshotTag)
	if i < 0 {
		return ""
	}
	rest := body[i+len(snapshotTag):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

var elapsedTag = []byte(`"elapsed_ns":`)

// sameResult accepts a body byte-identical to the reference except for the
// compute time: a result the engine evicted and computed again (or another
// replica computed) carries its own elapsed_ns and must match in every
// other byte.
func sameResult(body, ref []byte) error {
	i, j := bytes.LastIndex(body, elapsedTag), bytes.LastIndex(ref, elapsedTag)
	if i < 0 || j < 0 {
		if i == j && bytes.Equal(body, ref) {
			return nil
		}
	} else if bytes.Equal(body[:i], ref[:j]) && bytes.Equal(afterNumber(body[i+len(elapsedTag):]), afterNumber(ref[j+len(elapsedTag):])) {
		return nil
	}
	return fmt.Errorf("response (%d bytes) differs from the validated reference", len(body))
}

func afterNumber(b []byte) []byte {
	k := 0
	for k < len(b) && b[k] >= '0' && b[k] <= '9' {
		k++
	}
	return b[k:]
}
