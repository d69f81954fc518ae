package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// Production defaults the benchmark pins explicitly where the library's
// zero value differs from what cmd/serve runs with.
const prodRepairK = 16

// topology is how a workload's system is assembled.
type topology int

const (
	topoMemory  topology = iota // one server; every graph uploaded over HTTP
	topoDurable                 // one server; the big graph in a durable store
	topoRouted                  // a cluster.Router over two servers
)

// node is one serving process: an engine behind a server on a loopback
// port. tracer and timed are set on traced runs only.
type node struct {
	eng    *engine.Engine
	srv    *server.Server
	hs     *http.Server
	base   string
	tracer *obs.Tracer
	timed  *timedHandler
}

// system is one fresh bring-up of the stack under test.
type system struct {
	base    string             // the URL the load generator drives
	ids     [numRoles]string   // graph ids at base ("" = not served)
	fp0     [numRoles]string   // fingerprint of each graph at creation
	nodes   []*node            // backends
	remote  [][numRoles]string // graph ids per backend
	router  *cluster.Router
	rtimed  *timedHandler
	rhs     *http.Server
	durable *store.Store
	wal     *obs.WALMetrics
	dir     string
	// warmBodies[k][i] is key k's pre-warm response from backend i.
	warmBodies [][][]byte

	hc *http.Client
	wg sync.WaitGroup
}

// serve starts an HTTP server for h on a loopback port.
func (s *system) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

func (s *system) startNode(traced bool) (*node, error) {
	n := &node{eng: engine.New(engine.Options{RepairK: prodRepairK})}
	var opts server.Options
	if traced {
		n.tracer = obs.NewTracer(obs.TracerOptions{RingSize: 4096})
		opts.Tracer = n.tracer
	}
	n.srv = server.New(n.eng, opts)
	var h http.Handler = n.srv
	if traced {
		n.timed = newTimedHandler(n.srv)
		h = n.timed
	}
	var err error
	if n.hs, n.base, err = s.serve(h); err != nil {
		return nil, err
	}
	s.nodes = append(s.nodes, n)
	return n, nil
}

// bringUp assembles a fresh system from the plan's pre-generated inputs:
// servers, graph uploads (or store.Create + AddStore), router placement and
// replication, and the pre-warm of the plan's keys. Everything it does is
// what setup_s measures.
func bringUp(p *plan, topo topology, traced bool, dir string) (_ *system, err error) {
	s := &system{hc: &http.Client{Transport: &http.Transport{DisableCompression: true}}, dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	used := p.roles()
	switch topo {
	case topoMemory, topoDurable:
		n, err := s.startNode(traced)
		if err != nil {
			return nil, err
		}
		s.base = n.base
		for r := role(0); r < numRoles; r++ {
			if !used[r] {
				continue
			}
			if r == roleBig && topo == topoDurable {
				s.wal = obs.NewWALMetrics()
				st, err := store.Create(p.graphs[r], store.Options{Dir: filepath.Join(dir, "big"), Metrics: s.wal})
				if err != nil {
					return nil, fmt.Errorf("creating the durable store: %w", err)
				}
				s.durable = st
				s.ids[r], _ = n.srv.AddStore(st)
				s.fp0[r] = st.Fingerprint().String()
				continue
			}
			if s.ids[r], s.fp0[r], err = s.upload(s.base, p.uploads[r]); err != nil {
				return nil, err
			}
		}
		s.remote = [][numRoles]string{s.ids}
	case topoRouted:
		var bases []string
		for i := 0; i < 2; i++ {
			n, err := s.startNode(traced)
			if err != nil {
				return nil, err
			}
			bases = append(bases, n.base)
		}
		if s.router, err = cluster.New(cluster.Options{Nodes: bases}); err != nil {
			return nil, err
		}
		var h http.Handler = s.router
		if traced {
			s.rtimed = newTimedHandler(s.router)
			h = s.rtimed
		}
		if s.rhs, s.base, err = s.serve(h); err != nil {
			return nil, err
		}
		for r := role(0); r < numRoles; r++ {
			if used[r] {
				if s.ids[r], s.fp0[r], err = s.upload(s.base, p.uploads[r]); err != nil {
					return nil, err
				}
			}
		}
		for _, n := range s.nodes {
			ids, err := s.remoteIDs(n.base)
			if err != nil {
				return nil, err
			}
			s.remote = append(s.remote, ids)
		}
	}
	if p.warm {
		if err := s.prewarm(p); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// roles reports which graphs the plan's keys and writes touch.
func (p *plan) roles() [numRoles]bool {
	var used [numRoles]bool
	for _, k := range p.keys {
		used[k.role] = true
	}
	if len(p.queries) > 0 {
		used[roleBig] = true
	}
	for _, s := range p.streams {
		for _, o := range s {
			if o.kind == opToggle {
				used[o.role] = true
			}
		}
	}
	return used
}

// upload creates a graph from an edge-list body and returns its id and
// fingerprint.
func (s *system) upload(base string, body []byte) (string, string, error) {
	resp, err := s.hc.Post(base+"/v1/graphs?format=el", "text/plain", bytes.NewReader(body))
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	var info server.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusCreated {
		return "", "", fmt.Errorf("upload: status %d: %v", resp.StatusCode, err)
	}
	return info.ID, info.Fingerprint, nil
}

// remoteIDs maps each routed graph to its id on one backend, by
// fingerprint.
func (s *system) remoteIDs(base string) ([numRoles]string, error) {
	var ids [numRoles]string
	resp, err := s.hc.Get(base + "/v1/graphs")
	if err != nil {
		return ids, err
	}
	defer resp.Body.Close()
	var list []server.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return ids, fmt.Errorf("listing %s: %w", base, err)
	}
	for r := role(0); r < numRoles; r++ {
		if s.fp0[r] == "" {
			continue
		}
		for _, g := range list {
			if g.Fingerprint == s.fp0[r] {
				ids[r] = g.ID
			}
		}
		if ids[r] == "" {
			return ids, fmt.Errorf("backend %s does not hold graph %d", base, r)
		}
	}
	return ids, nil
}

// prewarm computes every key on every backend, keeping each response body
// as that key's reference.
func (s *system) prewarm(p *plan) error {
	s.warmBodies = make([][][]byte, len(p.keys))
	for k, key := range p.keys {
		for i, n := range s.nodes {
			url := n.base + "/v1/graphs/" + s.remote[i][key.role] + "/run"
			resp, err := s.hc.Post(url, "application/json", bytes.NewReader(key.body))
			if err != nil {
				return err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("pre-warm %s: status %d: %s", key.body, resp.StatusCode, body)
			}
			s.warmBodies[k] = append(s.warmBodies[k], body)
		}
	}
	return nil
}

// footprintMB is the live heap less what the benchmark itself holds: the
// pre-warm bodies it keeps as references are subtracted, and the bring-up
// client's idle connections are closed first.
func (s *system) footprintMB() float64 {
	s.hc.CloseIdleConnections()
	held := 0
	for _, bodies := range s.warmBodies {
		for _, b := range bodies {
			held += cap(b)
		}
	}
	return liveHeapMB() - float64(held)/(1<<20)
}

// close stops every server, closes the durable store and removes its
// directory, and waits for the serving goroutines to exit.
func (s *system) close() {
	if s.rhs != nil {
		_ = s.rhs.Close()
	}
	for _, n := range s.nodes {
		_ = n.hs.Close()
	}
	s.wg.Wait()
	if s.durable != nil {
		_ = s.durable.Close()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
	s.hc.CloseIdleConnections()
}

// deltaLog fetches graph r's whole delta log from the first backend (the
// owner, or the only server).
func (s *system) deltaLog(r role) ([]server.WireDelta, error) {
	body, err := s.get(s.nodes[0].base + "/v1/graphs/" + s.remote[0][r] + "/deltas?since=0")
	if err != nil {
		return nil, fmt.Errorf("fetching the delta log: %w", err)
	}
	var d server.DeltasResponse
	if err := json.Unmarshal([]byte(body), &d); err != nil || d.Resync {
		return nil, fmt.Errorf("delta log: resync %v: %v", d.Resync, err)
	}
	return d.Entries, nil
}

// get fetches a small GET endpoint's body (metrics scrapes).
func (s *system) get(url string) (string, error) {
	resp, err := s.hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = errors.New(resp.Status)
	}
	return string(b), err
}

// Request classes the handler wrappers time separately.
const (
	classRead  = iota // run, query
	classWrite        // addedge, deledge
	classOther
	numClasses
)

func classOf(path string) int {
	switch {
	case strings.HasSuffix(path, "/run"), strings.HasSuffix(path, "/query"):
		return classRead
	case strings.HasSuffix(path, "/addedge"), strings.HasSuffix(path, "/deledge"):
		return classWrite
	}
	return classOther
}

// timedHandler records the wall time of every request its wrapped handler
// serves, by class. It is the benchmark's span around one layer.
type timedHandler struct {
	next http.Handler
	mu   sync.Mutex
	lat  [numClasses][]int64
}

func newTimedHandler(next http.Handler) *timedHandler { return &timedHandler{next: next} }

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0).Nanoseconds()
	c := classOf(r.URL.Path)
	h.mu.Lock()
	h.lat[c] = append(h.lat[c], d)
	h.mu.Unlock()
}

// reset drops everything recorded so far (the bring-up's requests).
func (h *timedHandler) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for c := range h.lat {
		h.lat[c] = h.lat[c][:0]
	}
}

func (h *timedHandler) samples(c int) []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.lat[c]...)
}
