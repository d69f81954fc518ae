package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/graphio"
)

// Input sizes. The big graph carries the decompositions, the queries and
// the churn; covering is superlinear in n, so it runs on the small graph.
const (
	bigN      = 10000
	smallN    = 1000
	sideN     = 1000
	avgDegree = 8
)

// role names one of the graphs a system serves.
type role int

const (
	roleBig   role = iota // 10k GNP: changli, netdecomp, packing (cold), queries, churn
	roleSmall             // 1k GNP: covering, and packing on the serving workloads
	roleSide              // 1k GNP no read touches: the write target of cold-solve and hot-read
	numRoles
)

// family classifies an op for per-family latency and for checking.
type family int

const (
	famChangli family = iota
	famPacking
	famCovering
	famNet     // netdecomp
	famCluster // /query op=cluster
	famBall    // /query op=ball
	famWrite   // addedge / deledge
	numFamilies
)

var familyNames = [numFamilies]string{"changli", "packing", "covering", "netdecomp", "cluster", "ball", "write"}

// Request parameters of the solver families.
const (
	changliEps   = 0.3
	changliScale = 0.05
	clusterCount = 16 // vertices per cluster-of query
	ballCount    = 2  // vertices per ball query
	ballRadius   = 2
)

// The registry defaults the ILP families run with; the traced run's
// kernel rung passes the same values.
const (
	ilpEps      = 0.25
	ilpPrepRuns = 3
)

// key is one /run request: a family on a graph with a seed. Its body is
// encoded once, before any clock starts.
type key struct {
	fam  family
	role role
	seed uint64
	body []byte
}

// algoName is the registry name a family's /run requests.
var algoName = [numFamilies]string{famChangli: "changli", famPacking: "packing", famCovering: "covering", famNet: "netdecomp"}

func (k key) algo() string { return algoName[k.fam] }

// q is the request's parameter bag in trace-line form.
func (k key) q() string {
	switch k.fam {
	case famChangli:
		return fmt.Sprintf("eps=%g scale=%g seed=%d", changliEps, changliScale, k.seed)
	case famPacking:
		return fmt.Sprintf("problem=mis seed=%d", k.seed)
	case famCovering:
		return fmt.Sprintf("problem=mds seed=%d", k.seed)
	}
	return fmt.Sprintf("seed=%d", k.seed)
}

func newKey(fam family, r role, seed uint64) key {
	k := key{fam: fam, role: r, seed: seed}
	k.body = []byte(fmt.Sprintf(`{"algo":%q,"q":%q}`, k.algo(), k.q()))
	return k
}

// query is one /query request on the big graph.
type query struct {
	fam  family
	body []byte
}

type opKind uint8

const (
	opRun    opKind = iota // POST /run of keys[idx]
	opQuery                // POST /query of queries[idx]
	opToggle               // addedge u v, then deledge u v if the edge existed
)

// op is one step of a client's stream.
type op struct {
	kind   opKind
	idx    int  // key or query index
	role   role // graph a toggle writes to
	sample bool // fully decode this read's body after the clock stops
	body   []byte
	u, v   int32
}

// plan is everything a run sends, fixed by the seed: the graphs, the keys
// (pre-warmed at bring-up unless the workload is cold), the queries, and
// one op stream per client.
type plan struct {
	graphs  [numRoles]*graph.Graph
	uploads [numRoles][]byte // edge-list bodies for POST /v1/graphs
	keys    []key
	warm    bool
	queries []query
	streams [][]op
	mutated role // the graph the toggles write to
}

// streamLen is the length of a serving client's stream; a client that
// reaches the end wraps around.
const streamLen = 1 << 16

// rngFor derives an independent deterministic stream from the run seed.
func rngFor(seed uint64, label uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, label))
}

// gnp draws G(n, deg/(n-1)) by geometric skipping over the pairs (w < v),
// linear in the edge count.
func gnp(n int, deg float64, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	p := deg / float64(n-1)
	lq := math.Log1p(-p)
	v, w := 1, -1
	for v < n {
		w += 1 + int(math.Floor(math.Log1p(-rng.Float64())/lq))
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			b.AddEdge(v, w)
		}
	}
	return b.Build()
}

// newInputs draws the three graphs and their upload bodies.
func newInputs(seed uint64) (*plan, error) {
	p := &plan{}
	sizes := [numRoles]int{bigN, smallN, sideN}
	for r := role(0); r < numRoles; r++ {
		p.graphs[r] = gnp(sizes[r], avgDegree, rngFor(seed, 0x6e00+uint64(r)))
		var buf bytes.Buffer
		if err := graphio.Write(&buf, graphio.EdgeList, p.graphs[r]); err != nil {
			return nil, fmt.Errorf("encoding graph %d: %w", r, err)
		}
		p.uploads[r] = buf.Bytes()
	}
	return p, nil
}

func toggleOp(r role, u, v int32) op {
	return op{kind: opToggle, role: r, u: u, v: v, body: []byte(fmt.Sprintf(`{"u":%d,"v":%d}`, u, v))}
}

// randomToggle picks an edge to flip on g: half the time an edge of g (the
// add is a no-op and the delete applies), otherwise a random pair.
func randomToggle(g *graph.Graph, r role, rng *rand.Rand) op {
	n := g.N()
	if rng.IntN(2) == 0 {
		for {
			u := rng.IntN(n)
			if nb := g.Neighbors(u); len(nb) > 0 {
				return toggleOp(r, int32(u), nb[rng.IntN(len(nb))])
			}
		}
	}
	u := rng.IntN(n)
	v := rng.IntN(n - 1)
	if v >= u {
		v++
	}
	return toggleOp(r, int32(u), int32(v))
}

// coldCycles bounds the cold-solve stream; a run never gets near it.
const coldCycles = 4096

// coldCycle is the order of the cold-solve solves. Packing runs twice per
// cycle: a packing solve's time varies most, from op to op and from run to
// run, and with one packing per cycle (about 35 a run) the spread of
// packing_ms across ten seeds reached 0.26.
var coldCycle = []family{famChangli, famPacking, famCovering, famPacking}

// planColdSolve: one client; every /run is a fresh seed, so every one
// misses the cache. Each solve is followed by one toggle on the side graph.
func planColdSolve(p *plan, seed uint64) {
	rng := rngFor(seed, 0xc01d)
	base := 1 + rng.Uint64N(1<<40)
	p.mutated = roleSide
	var s []op
	for i := 0; i < coldCycles; i++ {
		for _, f := range coldCycle {
			r := roleBig
			if f == famCovering {
				r = roleSmall
			}
			p.keys = append(p.keys, newKey(f, r, base+uint64(len(p.keys))))
			s = append(s, op{kind: opRun, idx: len(p.keys) - 1, sample: true})
			s = append(s, randomToggle(p.graphs[roleSide], roleSide, rng))
		}
	}
	p.streams = [][]op{s}
}

// Closed-loop clients per workload: cold-solve and routed run one (see
// planRouted), churn two, so that reads and writes interleave. hot-read
// runs one. With two, the server and both clients kept both vCPUs busy at
// once, and the median changli hit moved between two levels about 25%
// apart as the shared host's state changed, which the yardstick did not
// see (across ten seeds the spread of changli_ms reached 0.25). With one
// client a read runs alone, and the hit latency keeps a fixed ratio to the
// yardstick (within 4% over six runs of one seed).
const (
	hotReadClients = 1
	churnClients   = 2
)

// planHotRead: 8 changli and 8 netdecomp keys on the big graph plus one
// packing and one covering key on the small graph, all pre-warmed; 75%
// /run over those keys, 23% /query, 2% toggles on the side graph. The
// netdecomp results (cluster and colour of every vertex) are the large
// bodies. Sparse covers would be the obvious choice, but their body size
// swings with the seed (47 to over 100 KB), and the read p99 followed it.
func planHotRead(p *plan, seed uint64) {
	rng := rngFor(seed, 0x4077)
	p.mutated = roleSide
	for i := 0; i < 8; i++ {
		p.keys = append(p.keys, newKey(famChangli, roleBig, 1+rng.Uint64N(1<<20)))
	}
	for i := 0; i < 8; i++ {
		p.keys = append(p.keys, newKey(famNet, roleBig, 1+rng.Uint64N(1<<20)))
	}
	p.keys = append(p.keys, newKey(famPacking, roleSmall, 1+rng.Uint64N(1<<20)))
	p.keys = append(p.keys, newKey(famCovering, roleSmall, 1+rng.Uint64N(1<<20)))
	p.warm = true
	for i := 0; i < 32; i++ {
		if i%2 == 0 {
			k := p.keys[rng.IntN(8)] // a warm changli decomposition
			vs := randomVertices(rng, bigN, clusterCount)
			p.queries = append(p.queries, query{famCluster, []byte(fmt.Sprintf(
				`{"op":"cluster","vertices":%s,"eps":%g,"scale":%g,"seed":%d}`, vs, changliEps, changliScale, k.seed))})
		} else {
			vs := randomVertices(rng, bigN, ballCount)
			p.queries = append(p.queries, query{famBall, []byte(fmt.Sprintf(
				`{"op":"ball","vertices":%s,"radius":%d}`, vs, ballRadius))})
		}
	}
	for c := 0; c < hotReadClients; c++ {
		crng := rngFor(seed, 0x4077c0+uint64(c))
		s := make([]op, streamLen)
		for i := range s {
			switch x := crng.IntN(100); {
			case x < 75:
				s[i] = op{kind: opRun, idx: crng.IntN(len(p.keys))}
			case x < 98:
				s[i] = op{kind: opQuery, idx: crng.IntN(len(p.queries))}
			default:
				s[i] = randomToggle(p.graphs[roleSide], roleSide, crng)
			}
		}
		p.streams = append(p.streams, s)
	}
}

// sampleEvery is the mean spacing of the churn reads decoded in full after
// the clock stops.
const sampleEvery = 64

// togglePool is how many distinct edges churn flips. A fixed pool bounds
// the store's delta overlay, so the heap at the end of a run does not grow
// with the number of writes the machine managed.
const togglePool = 256

// planChurn: 4 changli keys on the big graph, which every write changes,
// so their reads are repaired misses, plus one packing and one covering key
// on the small graph, which no write touches; 90% reads (nine in ten of
// them changli), 10% toggles of big-graph edges drawn from a fixed pool.
func planChurn(p *plan, seed uint64) { churnPlan(p, seed, roleBig, roleBig, churnClients) }

// planRouted: the churn mix with every key on the small graph and the
// toggles on the side graph, so every read through the router is a hit and
// every write is replicated, driven by one client. The read tail has to
// stay well below the router's 2 ms hedge threshold: past it, hedged copies
// add load and push more reads past it. With the writes on the big graph,
// repaired reads took 2-3 ms; with its 20 KB changli hits and two clients
// the read p99 was 2-5 ms, and with small-graph keys and two clients 1.4-2.1
// ms, and on a slower host runs fell into the hedging regime at half the
// throughput. One client on the small graph keeps the p99 near 0.6 ms.
func planRouted(p *plan, seed uint64) { churnPlan(p, seed, roleSide, roleSmall, 1) }

// churnChangliKeys is how many changli keys churn and routed read. A read
// goes to one of them nine times in ten, and to the packing or the covering
// key otherwise. With reads spread evenly over the six keys, a third of
// them were 0.1 ms small-graph hits, the read median fell between those and
// the changli reads, and across ten seeds its spread reached 0.15 while
// that of changli_ms stayed under 0.04.
const churnChangliKeys = 4

func churnPlan(p *plan, seed uint64, mutated, changli role, clients int) {
	rng := rngFor(seed, 0xc4a2)
	p.mutated = mutated
	for i := 0; i < churnChangliKeys; i++ {
		p.keys = append(p.keys, newKey(famChangli, changli, 1+rng.Uint64N(1<<20)))
	}
	p.keys = append(p.keys, newKey(famPacking, roleSmall, 1+rng.Uint64N(1<<20)))
	p.keys = append(p.keys, newKey(famCovering, roleSmall, 1+rng.Uint64N(1<<20)))
	p.warm = true
	pool := make([]op, togglePool)
	for i := range pool {
		pool[i] = randomToggle(p.graphs[mutated], mutated, rng)
	}
	for c := 0; c < clients; c++ {
		crng := rngFor(seed, 0xc4a2c0+uint64(c))
		s := make([]op, streamLen)
		for i := range s {
			if crng.IntN(10) == 0 {
				s[i] = pool[crng.IntN(len(pool))]
				continue
			}
			k := crng.IntN(churnChangliKeys)
			if crng.IntN(10) == 0 {
				k = churnChangliKeys + crng.IntN(2)
			}
			s[i] = op{kind: opRun, idx: k, sample: p.keys[k].role == mutated && crng.IntN(sampleEvery) == 0}
		}
		p.streams = append(p.streams, s)
	}
}

func randomVertices(rng *rand.Rand, n, k int) string {
	var b bytes.Buffer
	b.WriteByte('[')
	for i := 0; i < k; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", rng.IntN(n))
	}
	b.WriteByte(']')
	return b.String()
}

// encode serializes everything the plan sends, for the determinism test.
func (p *plan) encode() []byte {
	var b bytes.Buffer
	for _, u := range p.uploads {
		b.Write(u)
	}
	for _, k := range p.keys {
		fmt.Fprintf(&b, "k %d %d %s\n", k.fam, k.role, k.body)
	}
	for _, q := range p.queries {
		fmt.Fprintf(&b, "q %d %s\n", q.fam, q.body)
	}
	for _, s := range p.streams {
		for _, o := range s {
			var hdr [12]byte
			hdr[0], hdr[1] = byte(o.kind), byte(o.role)
			if o.sample {
				hdr[2] = 1
			}
			binary.LittleEndian.PutUint32(hdr[4:], uint32(o.idx))
			b.Write(hdr[:])
			b.Write(o.body)
		}
	}
	return b.Bytes()
}
