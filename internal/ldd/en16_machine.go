package ldd

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/local"
)

// This file implements Elkin–Neiman as an honest message-passing protocol on
// the local.Engine: each vertex draws its exponential shift locally, floods
// (source, value) labels that decay by one per hop, and decides after the
// broadcast horizon. Given the same seed it produces bit-identical output to
// the oracle implementation in en16.go — the cross-check test is the
// evidence that the oracle's round accounting simulates a real LOCAL
// protocol.

// enLabelMsg is the message payload: a batch of labels, already decremented
// for the receiver.
type enLabelMsg []label

// SizeBits implements local.Sizer: each label is (id, value) ~ 96 bits. The
// per-round batches make this a LOCAL-model (not CONGEST) protocol, which
// the audit in the tests demonstrates.
func (m enLabelMsg) SizeBits() int { return 96 * len(m) }

// enMachine is the per-vertex protocol state.
type enMachine struct {
	v       int
	degree  int
	horizon int
	// best value per source seen so far.
	values map[int32]float64
	// labels accepted this round, to be relayed next round.
	fresh []label
	// final decision
	cluster int32
	deleted bool
}

func (m *enMachine) bestValue() float64 {
	best := math.Inf(-1)
	for _, val := range m.values {
		if val > best {
			best = val
		}
	}
	return best
}

func (m *enMachine) Round(round int, inbox []local.Message) ([]local.Message, bool) {
	// Merge incoming labels.
	for _, msg := range inbox {
		if msg == nil {
			continue
		}
		for _, l := range msg.(enLabelMsg) {
			if old, ok := m.values[l.source]; !ok || l.value > old {
				m.values[l.source] = l.value
				m.fresh = append(m.fresh, l)
			}
		}
	}
	// Relay fresh labels that can still matter anywhere: a label needed by a
	// neighbor w satisfies value-1 >= best(w) - 1 >= best(v) - 2, so
	// value >= best(v) - 1 at v; we relay with one unit of safety margin.
	// Values below -2 are globally irrelevant (every vertex's best is >= 0).
	var outLabels []label
	best := m.bestValue()
	for _, l := range m.fresh {
		nv := l.value - 1
		if nv < -2 || l.value < best-2 {
			continue
		}
		outLabels = append(outLabels, label{source: l.source, value: nv})
	}
	m.fresh = m.fresh[:0]

	var out []local.Message
	if len(outLabels) > 0 {
		out = make([]local.Message, m.degree)
		batch := enLabelMsg(outLabels)
		for i := range out {
			out[i] = batch
		}
	}
	if round >= m.horizon {
		m.decide()
		return out, true
	}
	return out, false
}

// decide applies the Lemma C.1 rule with the same tie-breaking as the
// oracle: best label wins with ties to the smaller source id; the vertex is
// deleted when a second distinct source comes within 1 of the best.
func (m *enMachine) decide() {
	type sv struct {
		source int32
		value  float64
	}
	all := make([]sv, 0, len(m.values))
	for s, val := range m.values {
		all = append(all, sv{s, val})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].value != all[j].value {
			return all[i].value > all[j].value
		}
		return all[i].source < all[j].source
	})
	if len(all) == 0 {
		m.deleted = true
		return
	}
	if len(all) >= 2 && all[1].value >= all[0].value-1 {
		m.deleted = true
		return
	}
	m.cluster = all[0].source
}

// ElkinNeimanDistributed runs the Lemma C.1 decomposition as a real
// message-passing protocol and returns the decomposition together with the
// engine statistics. Sequential selects the single-threaded executor. The
// output is identical to ElkinNeimanCtx on the whole graph with the same
// parameters.
func ElkinNeimanDistributed(g *graph.Graph, p ENParams, sequential bool) (*Decomposition, local.Stats, error) {
	if err := p.check(); err != nil {
		return nil, local.Stats{}, err
	}
	n := g.N()
	shifts, maxT := enShiftsOwned(n, p)
	horizon := int(math.Ceil(maxT)) + 3
	machines := make([]*enMachine, n)
	stats, err := local.Run(local.Config{
		Graph: g,
		NewMachine: func(v int) local.Machine {
			m := &enMachine{
				v:       v,
				degree:  g.Degree(v),
				horizon: horizon,
				values:  map[int32]float64{int32(v): shifts[v]},
				fresh:   []label{{source: int32(v), value: shifts[v]}},
				cluster: Unclustered,
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
		if m.deleted {
			clusterOf[v] = Unclustered
		} else {
			clusterOf[v] = m.cluster
		}
	}
	num := relabel(clusterOf)
	return &Decomposition{
		ClusterOf:   clusterOf,
		NumClusters: num,
		Rounds:      stats.Rounds,
	}, stats, nil
}
