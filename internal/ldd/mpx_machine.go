package ldd

import (
	"math"

	"repro/internal/graph"
	"repro/internal/local"
)

// This file implements the Miller–Peng–Xu clustering as a CONGEST-model
// protocol, addressing the direction raised in the paper's conclusion
// (Section 6): the LOCAL implementations here exchange label batches of
// unbounded size, but MPX's best-source rule needs only ONE label per
// vertex per round — (source id, value) in O(log n) bits — because a vertex
// only ever relays an improvement of its own best label. The engine's
// CONGEST audit verifies the bound, and a test checks bit-equality with the
// oracle MPX implementation.

// mpxMsg is a single (source, value) label: id + value ≈ 96 bits, within
// the conventional CONGEST budget for the graph sizes exercised.
type mpxMsg label

// SizeBits implements local.Sizer.
func (mpxMsg) SizeBits() int { return 96 }

// mpxMachine keeps only the best label seen, relaying improvements.
type mpxMachine struct {
	degree  int
	horizon int
	best    label
	send    bool
}

func (m *mpxMachine) Round(round int, inbox []local.Message) ([]local.Message, bool) {
	for _, msg := range inbox {
		if msg == nil {
			continue
		}
		l := label(msg.(mpxMsg))
		// Strict improvement, with the oracle's tie-break (smaller source).
		if l.value > m.best.value || (l.value == m.best.value && l.source < m.best.source) {
			m.best = l
			m.send = true
		}
	}
	var out []local.Message
	if m.send {
		m.send = false
		nv := m.best.value - 1
		if nv >= 0 { // labels below 0 can never win anywhere
			out = make([]local.Message, m.degree)
			batch := mpxMsg(label{source: m.best.source, value: nv})
			for i := range out {
				out[i] = batch
			}
		}
	}
	return out, round >= m.horizon
}

// MPXDistributed runs the Miller–Peng–Xu clustering as a CONGEST protocol
// on the engine and returns the result plus engine statistics. Output is
// bit-identical to MPXCtx(ctx, g, p) for the same parameters.
func MPXDistributed(g *graph.Graph, p ENParams, sequential bool) (*MPXResult, local.Stats, error) {
	n := g.N()
	shifts, maxT := enShiftsOwned(n, p)
	horizon := int(math.Ceil(maxT)) + 3
	machines := make([]*mpxMachine, n)
	stats, err := local.Run(local.Config{
		Graph: g,
		NewMachine: func(v int) local.Machine {
			m := &mpxMachine{
				degree:  g.Degree(v),
				horizon: horizon,
				best:    label{source: int32(v), value: shifts[v]},
				send:    true,
			}
			machines[v] = m
			return m
		},
		MaxRounds:  horizon + 2,
		Sequential: sequential,
	})
	if err != nil {
		return nil, stats, err
	}
	clusterOf := make([]int32, n)
	for v, m := range machines {
		clusterOf[v] = m.best.source
	}
	res := &MPXResult{}
	g.Edges(func(u, v int) {
		if clusterOf[u] != clusterOf[v] {
			res.CutEdges = append(res.CutEdges, [2]int{u, v})
		}
	})
	num := relabel(clusterOf)
	res.Decomposition = Decomposition{
		ClusterOf:   clusterOf,
		NumClusters: num,
		Rounds:      stats.Rounds,
	}
	return res, stats, nil
}
