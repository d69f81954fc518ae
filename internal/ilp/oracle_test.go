package ilp_test

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/hypergraph"
	"repro/internal/ilp"
	"repro/internal/problems"
	"repro/internal/xrand"
)

// refBuilder is the per-row builder the flat ilp.Builder replaced: every
// row is its own sorted term slice, with a repeated variable's
// coefficients summed into one term. It is the oracle for constraints,
// term order and first error.
type refBuilder struct {
	kind ilp.Kind
	n    int
	rows []ilp.Constraint
	err  error
}

func newRefBuilder(kind ilp.Kind, weights []int64) *refBuilder {
	b := &refBuilder{kind: kind, n: len(weights)}
	if kind != ilp.Packing && kind != ilp.Covering {
		b.err = fmt.Errorf("%w: unknown kind %d", ilp.ErrBadInstance, kind)
	}
	for i, w := range weights {
		if w < 0 {
			b.err = fmt.Errorf("%w: negative weight on variable %d", ilp.ErrBadInstance, i)
			break
		}
	}
	return b
}

func (b *refBuilder) add(terms []ilp.Term, rhs float64) {
	if b.err != nil {
		return
	}
	if rhs < 0 || math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		b.err = fmt.Errorf("%w: bad rhs %v", ilp.ErrBadInstance, rhs)
		return
	}
	sum := map[int]float64{}
	for _, t := range terms {
		if t.Var < 0 || t.Var >= b.n {
			b.err = fmt.Errorf("%w: variable %d out of range", ilp.ErrBadInstance, t.Var)
			return
		}
		if t.Coeff <= 0 || math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
			b.err = fmt.Errorf("%w: nonpositive coefficient %v on variable %d", ilp.ErrBadInstance, t.Coeff, t.Var)
			return
		}
		sum[t.Var] += t.Coeff
	}
	row := ilp.Constraint{Terms: make([]ilp.Term, 0, len(sum)), B: rhs}
	for _, v := range slices.Sorted(maps.Keys(sum)) {
		if math.IsInf(sum[v], 0) {
			b.err = fmt.Errorf("%w: coefficients on variable %d overflow", ilp.ErrBadInstance, v)
			return
		}
		row.Terms = append(row.Terms, ilp.Term{Var: v, Coeff: sum[v]})
	}
	b.rows = append(b.rows, row)
}

func (b *refBuilder) build() error {
	if b.err != nil {
		return b.err
	}
	for ci, c := range b.rows {
		if b.kind == ilp.Covering && len(c.Terms) == 0 && c.B > 0 {
			return fmt.Errorf("%w: covering constraint %d has no variables but rhs %v", ilp.ErrBadInstance, ci, c.B)
		}
	}
	return nil
}

// checkAgainstRef compares a built instance (or its error) with the
// reference rows: constraints in order, every per-variable view, and the
// edge-form flag.
func checkAgainstRef(t testing.TB, inst *ilp.Instance, err error, ref *refBuilder) {
	t.Helper()
	refErr := ref.build()
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("error %v, want %v", err, refErr)
	}
	if err != nil {
		return
	}
	if inst.NumVars() != ref.n || inst.NumConstraints() != len(ref.rows) {
		t.Fatalf("n=%d m=%d, want n=%d m=%d", inst.NumVars(), inst.NumConstraints(), ref.n, len(ref.rows))
	}
	cons := make([][]int32, ref.n)
	coeffs := make([][]float64, ref.n)
	rank2Unit := true
	for j, row := range ref.rows {
		got := inst.Constraint(j)
		if !slices.Equal(got.Terms, row.Terms) || got.B != row.B {
			t.Fatalf("row %d = %v <> %v, want %v <> %v", j, got.Terms, got.B, row.Terms, row.B)
		}
		if len(row.Terms) > 2 || row.B != 1 {
			rank2Unit = false
		}
		for _, term := range row.Terms {
			cons[term.Var] = append(cons[term.Var], int32(j))
			coeffs[term.Var] = append(coeffs[term.Var], term.Coeff)
			if term.Coeff != 1 {
				rank2Unit = false
			}
		}
	}
	for v := 0; v < ref.n; v++ {
		if !slices.Equal(inst.ConstraintsOf(v), cons[v]) || !slices.Equal(inst.CoeffsOf(v), coeffs[v]) {
			t.Fatalf("var %d: ConstraintsOf %v CoeffsOf %v, want %v %v", v, inst.ConstraintsOf(v), inst.CoeffsOf(v), cons[v], coeffs[v])
		}
	}
	if inst.Rank2Unit() != rank2Unit {
		t.Fatalf("Rank2Unit = %v, want %v", inst.Rank2Unit(), rank2Unit)
	}
}

// checkPrimal compares inst.Primal with the primal graph of the hypergraph
// whose hyperedges are the instance's rows, CSR array for CSR array.
func checkPrimal(t testing.TB, inst *ilp.Instance) {
	t.Helper()
	hb := hypergraph.NewBuilder(inst.NumVars())
	for j := 0; j < inst.NumConstraints(); j++ {
		var vs []int
		for _, term := range inst.Constraint(j).Terms {
			vs = append(vs, term.Var)
		}
		hb.AddEdge(vs...)
	}
	gotOff, gotAdj := inst.Primal().CSR()
	wantOff, wantAdj := hb.Build().Primal().CSR()
	if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
		t.Fatalf("primal CSR %v %v, want %v %v", gotOff, gotAdj, wantOff, wantAdj)
	}
}

// randomRows adds random rows to both builders: ranks 0-6 (and now and
// then 13-20, past the sort's insertion-sort cutoff), terms in any order
// with repeated variables, coefficients 1-3.
func randomRows(rng *xrand.RNG, n int, rhs float64, add func([]ilp.Term, float64)) {
	if n == 0 {
		for j := 0; j < rng.Intn(3); j++ {
			add(nil, 0)
		}
		return
	}
	for j := 0; j < rng.Intn(3*n+2); j++ {
		rank := rng.Intn(7)
		if rng.Intn(8) == 0 {
			rank = 13 + rng.Intn(8)
		}
		terms := make([]ilp.Term, rank)
		for i := range terms {
			terms[i] = ilp.Term{Var: rng.Intn(n), Coeff: float64(1 + rng.Intn(3))}
		}
		r := rhs
		if r < 0 {
			r = float64(rng.Intn(3))
		}
		add(terms, r)
	}
}

func TestPrimalMatchesHypergraph(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(14)
		kind := ilp.Packing
		if trial%2 == 1 {
			kind = ilp.Covering
		}
		b := ilp.NewBuilder(kind, make([]int64, n))
		// Covering rows keep rhs 0 so that empty rows stay valid.
		rhs := -1.0
		if kind == ilp.Covering {
			rhs = 0
		}
		randomRows(rng, n, rhs, func(terms []ilp.Term, r float64) { b.AddConstraint(terms, r) })
		inst, err := b.Build()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkPrimal(t, inst)
	}

	// An edge-form problem's primal is its input graph itself.
	for _, g := range []*graph.Graph{gen.GNP(200, 0.03, xrand.New(5)), gen.Grid(7, 9), gen.Path(1), graph.NewBuilder(0).Build()} {
		for _, p := range []problems.Problem{problems.MIS, problems.MinVertexCover} {
			inst, err := problems.Build(p, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if inst.Primal() != g {
				t.Fatalf("%v on %v: primal is not the input graph", p, g)
			}
			checkPrimal(t, inst)
		}
	}
}

func TestBuilderMatchesReference(t *testing.T) {
	rng := xrand.New(43)
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(10)
		kind := ilp.Kind(1 + rng.Intn(2))
		if rng.Intn(50) == 0 {
			kind = 3
		}
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(rng.Intn(4))
			if rng.Intn(60) == 0 {
				w[i] = -1
			}
		}
		b, ref := ilp.NewBuilder(kind, w), newRefBuilder(kind, w)
		if trial%4 == 0 && n > 0 {
			// Edge form, where a row may repeat its variable (x + x).
			for j := 0; j < rng.Intn(2*n); j++ {
				terms := []ilp.Term{{Var: rng.Intn(n), Coeff: 1}, {Var: rng.Intn(n), Coeff: 1}}
				b.AddConstraint(terms, 1)
				ref.add(terms, 1)
			}
			inst, err := b.Build()
			checkAgainstRef(t, inst, err, ref)
			continue
		}
		randomRows(rng, n, -1, func(terms []ilp.Term, rhs float64) {
			switch rng.Intn(40) {
			case 0:
				rhs = -1
			case 1:
				rhs = math.NaN()
			case 2:
				if len(terms) > 0 {
					terms[rng.Intn(len(terms))].Var = n + rng.Intn(2)
				}
			case 3:
				if len(terms) > 0 {
					terms[rng.Intn(len(terms))].Coeff = 0
				}
			case 4:
				terms = nil
			}
			b.AddConstraint(terms, rhs)
			ref.add(terms, rhs)
		})
		inst, err := b.Build()
		checkAgainstRef(t, inst, err, ref)
	}
}

// TestFromGraphMatchesBuilder pins ilp.FromGraph to the Builder fed g's
// edges in Edges order, including weight vectors of the wrong length and
// negative weights.
func TestFromGraphMatchesBuilder(t *testing.T) {
	rng := xrand.New(47)
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		g := gen.GNP(n, 0.15, rng)
		kind := ilp.Kind(1 + rng.Intn(2))
		w := make([]int64, max(0, n+rng.Intn(3)-1))
		for i := range w {
			w[i] = int64(rng.Intn(3))
			if rng.Intn(100) == 0 {
				w[i] = -2
			}
		}
		ref := newRefBuilder(kind, w)
		g.Edges(func(u, v int) { ref.add([]ilp.Term{{Var: u, Coeff: 1}, {Var: v, Coeff: 1}}, 1) })
		inst, err := ilp.FromGraph(kind, g, w)
		checkAgainstRef(t, inst, err, ref)
		if err != nil {
			continue
		}
		if len(w) == n && inst.Primal() != g {
			t.Fatalf("trial %d: primal is not the input graph", trial)
		}
		checkPrimal(t, inst)
	}
}

// FuzzILPBuilder decodes a byte stream into weights and rows and checks the
// flat builder against the reference builder, and Primal against the
// hypergraph primal.
func FuzzILPBuilder(f *testing.F) {
	f.Add([]byte{3, 1, 1, 1, 1, 2, 0, 1, 1, 2, 1})
	f.Add([]byte{2, 2, 5, 1, 2, 0, 1, 0, 1, 1})
	f.Add([]byte{7, 1, 1, 2, 3, 4, 5, 6, 7, 14, 6, 1, 5, 1, 4, 1, 3, 1, 2, 1, 1, 1, 0, 1, 6, 2, 5, 2, 4, 2, 3, 2, 2, 2, 1, 2, 0, 2, 1})
	f.Add([]byte{0, 2, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			x := int(data[0])
			data = data[1:]
			return x
		}
		n := next() % 8
		kind := ilp.Kind(next() % 4)
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(next()%8) - 1
		}
		b, ref := ilp.NewBuilder(kind, w), newRefBuilder(kind, w)
		for len(data) > 0 {
			terms := make([]ilp.Term, next()%16)
			for i := range terms {
				terms[i] = ilp.Term{Var: next() % (n + 1), Coeff: float64(next() % 4)}
			}
			rhs := float64(next()%4) - 1
			b.AddConstraint(terms, rhs)
			ref.add(terms, rhs)
		}
		inst, err := b.Build()
		checkAgainstRef(t, inst, err, ref)
		if err == nil {
			checkPrimal(t, inst)
		}
	})
}
