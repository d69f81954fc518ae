package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"
)

// The yardstick is a fixed piece of work that shares no code with the
// program under test: a breadth-first search and map updates over a fixed
// graph, the JSON encoding of a fixed document, and one loopback HTTP
// round trip to a standard-library server. The shared host's speed drifts
// by tens of percent from one second to the next (no steal time shows;
// the program's CPU time per op moves with it), so the benchmark times
// yardstick chunks where the ops run: each client runs one after every
// ysEvery of op time, on its own goroutine, and bring-ups alternate with
// bursts of them. Every timing metric is reported scaled by
// yardstickNominal over the median chunk of its phase: a drift that slows
// the yardstick and the program alike cancels out, while a change to the
// program moves its metrics and not the yardstick.
const (
	ysVertices    = 20000
	ysDegree      = 8
	ysMapKeys     = 5000
	ysDocInts     = 10000
	ysEvery       = 25 * time.Millisecond
	ysSetupChunks = 16 // chunks timed before each bring-up
)

// yardstickNominal is a typical chunk on the host the bounds were set on
// (a 2-vCPU KVM guest): the timing metrics read as if measured while one
// chunk takes this long.
const yardstickNominal = 2 * time.Millisecond

type yardstick struct {
	off, adj []int32 // CSR of the fixed graph
	doc      ysDoc
	hs       *http.Server
	url      string
	wg       sync.WaitGroup
}

// ysDoc is the document a chunk encodes and posts, shaped like a
// decomposition result.
type ysDoc struct {
	Algo      string             `json:"algo"`
	Snapshot  string             `json:"snapshot"`
	ClusterOf []int32            `json:"cluster_of"`
	Metrics   map[string]float64 `json:"metrics"`
}

var ysRequest = []byte(`{"algo":"yardstick"}`)

func newYardstick() (*yardstick, error) {
	y := &yardstick{}
	rng := rand.New(rand.NewPCG(0x5eed, 0x7a4d))
	deg := make([]int32, ysVertices)
	edges := make([][2]int32, 0, ysVertices*ysDegree/2)
	for len(edges) < cap(edges) {
		u, v := rng.Int32N(ysVertices), rng.Int32N(ysVertices)
		if u != v {
			edges = append(edges, [2]int32{u, v})
			deg[u]++
			deg[v]++
		}
	}
	y.off = make([]int32, ysVertices+1)
	for v, d := range deg {
		y.off[v+1] = y.off[v] + d
	}
	y.adj = make([]int32, y.off[ysVertices])
	fill := append([]int32(nil), y.off[:ysVertices]...)
	for _, e := range edges {
		y.adj[fill[e[0]]] = e[1]
		fill[e[0]]++
		y.adj[fill[e[1]]] = e[0]
		fill[e[1]]++
	}
	y.doc = ysDoc{Algo: "yardstick", Snapshot: "0123456789abcdef", ClusterOf: make([]int32, ysDocInts), Metrics: map[string]float64{"rounds": 12, "radius": 5}}
	for i := range y.doc.ClusterOf {
		y.doc.ClusterOf[i] = rng.Int32N(ysVertices)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	y.url = "http://" + ln.Addr().String() + "/yardstick"
	y.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&y.doc)
	})}
	y.wg.Add(1)
	go func() {
		defer y.wg.Done()
		_ = y.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return y, nil
}

// close stops the yardstick server and waits for it to exit.
func (y *yardstick) close() {
	_ = y.hs.Close()
	y.wg.Wait()
}

// ysScratch is one client's reusable chunk state, so that a chunk
// allocates next to nothing.
type ysScratch struct {
	dist, queue []int32
	m           map[int32]int32
	sink        int
}

func newYSScratch() *ysScratch {
	return &ysScratch{dist: make([]int32, ysVertices), queue: make([]int32, 0, ysVertices), m: make(map[int32]int32, ysMapKeys)}
}

// chunk runs one yardstick chunk on c's goroutine and returns how long it
// took.
func (y *yardstick) chunk(c *leanClient, s *ysScratch) (int64, error) {
	t0 := time.Now()
	for i := range s.dist {
		s.dist[i] = -1
	}
	s.dist[0] = 0
	s.queue = append(s.queue[:0], 0)
	for h := 0; h < len(s.queue); h++ {
		u := s.queue[h]
		for _, v := range y.adj[y.off[u]:y.off[u+1]] {
			if s.dist[v] < 0 {
				s.dist[v] = s.dist[u] + 1
				s.queue = append(s.queue, v)
			}
		}
	}
	clear(s.m)
	for i := int32(0); i < ysMapKeys; i++ {
		s.m[y.adj[i]] += i
	}
	for i := int32(0); i < ysMapKeys; i++ {
		s.sink += int(s.m[i])
	}
	status, body, err := c.post(y.url, ysRequest)
	ns := time.Since(t0).Nanoseconds()
	if err == nil && (status != http.StatusOK || len(body) < ysDocInts) {
		err = fmt.Errorf("status %d: %.100s", status, body)
	}
	if err != nil {
		return 0, fmt.Errorf("yardstick: %w", err)
	}
	return ns, nil
}

// burst times n chunks back to back on a client of its own.
func (y *yardstick) burst(n int) ([]int64, error) {
	c := newLeanClient()
	defer c.hc.CloseIdleConnections()
	s := newYSScratch()
	out := make([]int64, 0, n)
	for range n {
		ns, err := y.chunk(c, s)
		if err != nil {
			return nil, err
		}
		out = append(out, ns)
	}
	return out, nil
}

// scaleOf is yardstickNominal over the median chunk: multiply a time by
// it (and divide a rate by it) to read it at the nominal host speed.
func scaleOf(chunks []int64) float64 {
	return float64(yardstickNominal.Nanoseconds()) / quantile(chunks, 0.5)
}
