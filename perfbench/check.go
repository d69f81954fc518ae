package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/server"
)

// edgeView is the graph a result is checked against.
type edgeView interface {
	N() int
	Edges(fn func(u, v int))
}

// checker validates decoded results against the guarantees the paper and
// the system promise. It is independent of the code under test: it reads
// only the wire result and the benchmark's own copy of the graph.
type checker struct {
	// decomp holds the validated changli decompositions by seed, for
	// checking cluster-of queries.
	decomp map[uint64][]int32
}

func newChecker() *checker { return &checker{decomp: make(map[uint64][]int32)} }

// checkRun decodes a /run body for key k and checks it against g.
func (c *checker) checkRun(k key, g edgeView, body []byte) (*server.Result, error) {
	r := &server.Result{}
	if err := json.Unmarshal(body, r); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	var err error
	switch k.fam {
	case famChangli:
		err = checkDecomposition(r, g, changliEps)
		if err == nil {
			c.decomp[k.seed] = r.ClusterOf
		}
	case famPacking:
		err = checkIndependent(r, g)
	case famCovering:
		err = checkDominating(r, g)
	case famNet:
		err = checkNetDecomposition(r, g)
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", familyNames[k.fam], k.seed, err)
	}
	return r, nil
}

// checkDecomposition: every vertex is clustered or counted unclustered,
// at most an eps share is unclustered, and no edge joins two clusters
// (separation).
func checkDecomposition(r *server.Result, g edgeView, eps float64) error {
	n := g.N()
	if len(r.ClusterOf) != n {
		return fmt.Errorf("cluster_of has %d entries, want %d", len(r.ClusterOf), n)
	}
	unclustered := 0
	for _, c := range r.ClusterOf {
		switch {
		case c < 0:
			unclustered++
		case int(c) >= r.NumClusters:
			return fmt.Errorf("cluster id %d out of range [0, %d)", c, r.NumClusters)
		}
	}
	if unclustered != r.Unclustered {
		return fmt.Errorf("counted %d unclustered vertices, result says %d", unclustered, r.Unclustered)
	}
	if float64(unclustered) > eps*float64(n) {
		return fmt.Errorf("%d of %d vertices unclustered, above eps=%g", unclustered, n, eps)
	}
	var bad [2]int
	found := false
	g.Edges(func(u, v int) {
		cu, cv := r.ClusterOf[u], r.ClusterOf[v]
		if !found && cu >= 0 && cv >= 0 && cu != cv {
			bad, found = [2]int{u, v}, true
		}
	})
	if found {
		return fmt.Errorf("edge %v joins clusters %d and %d", bad, r.ClusterOf[bad[0]], r.ClusterOf[bad[1]])
	}
	return nil
}

func checkSolution(r *server.Result, n int) error {
	if len(r.Solution) != n {
		return fmt.Errorf("solution has %d entries, want %d", len(r.Solution), n)
	}
	if !r.Feasible {
		return fmt.Errorf("result reports an infeasible solution")
	}
	count := int64(0)
	for _, x := range r.Solution {
		if x {
			count++
		}
	}
	if count != r.Value {
		return fmt.Errorf("solution has %d chosen vertices, value says %d", count, r.Value)
	}
	return nil
}

// checkIndependent: the packing (MIS) solution is an independent set.
func checkIndependent(r *server.Result, g edgeView) error {
	if err := checkSolution(r, g.N()); err != nil {
		return err
	}
	var err error
	g.Edges(func(u, v int) {
		if err == nil && r.Solution[u] && r.Solution[v] {
			err = fmt.Errorf("edge {%d, %d} has both endpoints chosen", u, v)
		}
	})
	return err
}

// checkDominating: the covering (MDS) solution dominates every vertex.
func checkDominating(r *server.Result, g edgeView) error {
	if err := checkSolution(r, g.N()); err != nil {
		return err
	}
	dominated := slices.Clone(r.Solution)
	g.Edges(func(u, v int) {
		if r.Solution[u] {
			dominated[v] = true
		}
		if r.Solution[v] {
			dominated[u] = true
		}
	})
	if i := slices.Index(dominated, false); i >= 0 {
		return fmt.Errorf("vertex %d is not dominated", i)
	}
	return nil
}

// checkNetDecomposition: every vertex is in a cluster, a cluster has one
// colour, and adjacent vertices of different clusters differ in colour.
func checkNetDecomposition(r *server.Result, g edgeView) error {
	n := g.N()
	if len(r.ClusterOf) != n || len(r.ColorOf) != n {
		return fmt.Errorf("%d cluster and %d colour entries, want %d", len(r.ClusterOf), len(r.ColorOf), n)
	}
	colour := make([]int32, r.NumClusters)
	for i := range colour {
		colour[i] = -1
	}
	for v, c := range r.ClusterOf {
		k := r.ColorOf[v]
		switch {
		case c < 0 || int(c) >= r.NumClusters:
			return fmt.Errorf("vertex %d: cluster %d out of range [0, %d)", v, c, r.NumClusters)
		case k < 0 || int(k) >= r.NumColors:
			return fmt.Errorf("vertex %d: colour %d out of range [0, %d)", v, k, r.NumColors)
		case colour[c] >= 0 && colour[c] != k:
			return fmt.Errorf("cluster %d has colours %d and %d", c, colour[c], k)
		}
		colour[c] = k
	}
	var err error
	g.Edges(func(u, v int) {
		if err == nil && r.ClusterOf[u] != r.ClusterOf[v] && r.ColorOf[u] == r.ColorOf[v] {
			err = fmt.Errorf("edge {%d, %d} joins two clusters of colour %d", u, v, r.ColorOf[u])
		}
	})
	return err
}

// checkQuery decodes a /query body and checks it against the validated
// decomposition (cluster-of) or a BFS on g (ball).
func (c *checker) checkQuery(q query, g *graph.Graph, body []byte) error {
	var rq server.QueryRequest
	if err := json.Unmarshal(q.body, &rq); err != nil {
		return err
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding query response: %w", err)
	}
	switch rq.Op {
	case "cluster":
		dec, ok := c.decomp[rq.Seed]
		if !ok {
			return fmt.Errorf("cluster query on seed %d, which no validated decomposition has", rq.Seed)
		}
		if len(resp.Clusters) != len(rq.Vertices) {
			return fmt.Errorf("%d cluster ids for %d vertices", len(resp.Clusters), len(rq.Vertices))
		}
		for i, v := range rq.Vertices {
			if resp.Clusters[i] != dec[v] {
				return fmt.Errorf("vertex %d: cluster %d, decomposition says %d", v, resp.Clusters[i], dec[v])
			}
		}
	case "ball":
		if len(resp.Balls) != len(rq.Vertices) {
			return fmt.Errorf("%d balls for %d vertices", len(resp.Balls), len(rq.Vertices))
		}
		for i, v := range rq.Vertices {
			got := slices.Sorted(slices.Values(resp.Balls[i]))
			if want := ball(g, int(v), rq.Radius); !slices.Equal(got, want) {
				return fmt.Errorf("ball of %d: %d vertices, BFS finds %d", v, len(got), len(want))
			}
		}
	}
	return nil
}

// ball is the sorted radius-r neighbourhood of v, by a plain BFS.
func ball(g *graph.Graph, v, r int) []int32 {
	dist := map[int32]int{int32(v): 0}
	frontier := []int32{int32(v)}
	for d := 1; d <= r; d++ {
		var next []int32
		for _, u := range frontier {
			for _, w := range g.Neighbors(int(u)) {
				if _, seen := dist[w]; !seen {
					dist[w] = d
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	out := make([]int32, 0, len(dist))
	for u := range dist {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// edgeSet is a mutable copy of a graph's edges, replayed forward through
// the write log to check a result at the epoch it was computed on.
type edgeSet struct {
	n   int
	set map[[2]int32]struct{}
}

func newEdgeSet(g *graph.Graph) *edgeSet {
	s := &edgeSet{n: g.N(), set: make(map[[2]int32]struct{}, g.M())}
	g.Edges(func(u, v int) { s.set[edgeKey(int32(u), int32(v))] = struct{}{} })
	return s
}

func edgeKey(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func (s *edgeSet) N() int { return s.n }

func (s *edgeSet) Edges(fn func(u, v int)) {
	for e := range s.set {
		fn(int(e[0]), int(e[1]))
	}
}

// history checks the writes and reads of the mutated graph after the
// clock stops, against the store's own delta log (log, from the owner's
// GET /deltas):
//   - the log's epochs run 1, 2, ... with distinct snapshots;
//   - the applied mutations the clients were acknowledged are exactly the
//     log's entries, and each acknowledgement names a version in the log
//     (a response names the store version after the call, which under
//     concurrent writers may already include another client's write);
//   - every read resolved the creation snapshot or one in the log, and each
//     client's reads never go back in epoch;
//   - each sampled read, decoded in full, satisfies its family's checks on
//     the graph as it stood at that epoch.
//
// It returns the number of failed ops and their first messages.
func history(p *plan, log []server.WireDelta, fp0 string, r role, clients []*clientStats) (failed int, errs []string) {
	fail := func(format string, args ...any) {
		failed++
		if len(errs) < 5 {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	type edgeOp struct {
		add  bool
		u, v int32
	}
	epochOf := map[string]uint64{fp0: 0}
	logged := map[edgeOp]int{}
	for i, d := range log {
		if d.Epoch != uint64(i+1) {
			fail("delta log entry %d has epoch %d", i+1, d.Epoch)
			return failed, errs
		}
		if _, dup := epochOf[d.Fingerprint]; dup {
			fail("snapshot %.12s appears twice in the delta log", d.Fingerprint)
		}
		epochOf[d.Fingerprint] = d.Epoch
		logged[edgeOp{d.Op == graphio.OpAddEdge, d.U, d.V}]++
	}
	for _, cs := range clients {
		for _, w := range cs.writeLog {
			if w.role != r {
				continue
			}
			var mr server.MutateResponse
			if err := json.Unmarshal(w.body, &mr); err != nil {
				fail("decoding a mutation response: %v", err)
				continue
			}
			if e, ok := epochOf[mr.Fingerprint]; !ok || e != mr.Epoch {
				fail("mutation acknowledged at epoch %d, snapshot %.12s, which the delta log does not hold", mr.Epoch, mr.Fingerprint)
			}
			if mr.Applied {
				e := edgeKey(w.u, w.v)
				logged[edgeOp{w.add, e[0], e[1]}]--
			}
		}
	}
	for e, n := range logged {
		if n != 0 {
			fail("edge %v (add %v): the delta log and the acknowledged writes differ by %d", [2]int32{e.u, e.v}, e.add, n)
		}
	}
	type pending struct {
		epoch uint64
		kb    keptBody
	}
	var samples []pending
	for ci, cs := range clients {
		last := uint64(0)
		for _, fp := range cs.snaps {
			e, ok := epochOf[fp]
			switch {
			case !ok:
				fail("client %d read snapshot %.12s, which the delta log does not hold", ci, fp)
			case e < last:
				fail("client %d read epoch %d after epoch %d", ci, e, last)
			default:
				last = e
			}
		}
		for _, kb := range cs.kept {
			if e, ok := epochOf[snapshotOf(kb.body)]; ok { // unknown ones already failed above
				samples = append(samples, pending{e, kb})
			}
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].epoch < samples[j].epoch })
	g := newEdgeSet(p.graphs[r])
	next := 0
	c := newChecker()
	for _, s := range samples {
		for ; next < len(log) && log[next].Epoch <= s.epoch; next++ {
			d := log[next]
			if d.Op == graphio.OpAddEdge {
				g.set[edgeKey(d.U, d.V)] = struct{}{}
			} else {
				delete(g.set, edgeKey(d.U, d.V))
			}
		}
		if _, err := c.checkRun(p.keys[s.kb.key], g, s.kb.body); err != nil {
			fail("sampled read at epoch %d: %v", s.epoch, err)
		}
	}
	return failed, errs
}

// references decodes and checks every pre-warm body (off the clock),
// records what the warm keys' results report, and returns the first
// backend's bodies as the hit references.
func references(p *plan, s *system, c *checker, o *observed) ([][]byte, error) {
	refs := make([][]byte, len(s.warmBodies))
	for k, bodies := range s.warmBodies {
		refs[k] = bodies[0]
		for i, b := range bodies {
			r, err := c.checkRun(p.keys[k], p.graphs[p.keys[k].role], b)
			if err != nil {
				return nil, fmt.Errorf("pre-warm answer: %w", err)
			}
			if i == 0 {
				o.add(p.keys[k].fam, r)
			}
		}
	}
	return refs, nil
}

// observed accumulates what validated results report: the packing and
// covering values behind the quality metrics, and the round counts and
// region counts the traced run prints.
type observed struct {
	packing, covering []float64
	rounds            [numFamilies][]float64
	regions           []float64
}

func (o *observed) add(f family, r *server.Result) {
	o.rounds[f] = append(o.rounds[f], float64(r.Rounds))
	switch f {
	case famPacking:
		o.packing = append(o.packing, float64(r.Value))
	case famCovering:
		o.covering = append(o.covering, float64(r.Value))
		o.regions = append(o.regions, r.Metrics["regions"])
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
