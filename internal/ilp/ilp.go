// Package ilp represents packing and covering integer linear programs in the
// sparse form used throughout the paper (Definitions 1.1 and 1.2):
//
//	packing:  max  w·x  subject to  A x <= b,  x in {0,1}^n
//	covering: min  w·x  subject to  A x >= b,  x in {0,1}^n
//
// with A >= 0, b >= 0, w >= 0 integral. The package provides the instance
// representation, feasibility and objective evaluation, the associated
// hypergraph of Definition 1.3 (variables = vertices, constraints =
// hyperedges on the variables with nonzero coefficients), local restriction
// semantics (Observations 2.1 and 2.2), and the bit-decomposition reduction
// from bounded-integer variables to 0/1 variables described in Section 1.
//
// Builder keeps every row's terms in one flat array and Build slices the
// constraints out of it. FromGraph builds the edge-form instance of a graph
// (MIS, vertex cover) in one exact-sized pass over its CSR, and records the
// graph itself as the instance's primal graph: a *graph.Graph has strictly
// sorted, loop-free, symmetric adjacency, so it equals, array for array, the
// primal that Definition 1.3 derives from its edges. Any other instance
// builds its primal on the first Primal call, not in Build: the local
// solvers build many small per-region instances that never ask for it.
package ilp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
)

// Kind distinguishes packing from covering instances.
type Kind int

const (
	// Packing is maximize w.x subject to Ax <= b.
	Packing Kind = iota + 1
	// Covering is minimize w.x subject to Ax >= b.
	Covering
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Packing:
		return "packing"
	case Covering:
		return "covering"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Term is one nonzero coefficient a_{j,i} of constraint j on variable i.
type Term struct {
	Var   int
	Coeff float64
}

// Constraint is one row of A together with its right-hand side.
type Constraint struct {
	Terms []Term
	B     float64
}

// Instance is an immutable packing or covering ILP. Build with NewBuilder or
// FromGraph. It is safe for concurrent use.
type Instance struct {
	kind        Kind
	weights     []int64
	constraints []Constraint
	// Variable v's terms, in constraint order: conIDs[conStart[v]:
	// conStart[v+1]] holds the constraint ids and conCoeffs the matching
	// Coeff values.
	conStart   []int32
	conIDs     []int32
	conCoeffs  []float64
	rank2Unit  bool
	primalOnce sync.Once
	primal     *graph.Graph // FromGraph's graph, or built by the first Primal call
}

// ErrBadInstance is returned for structurally invalid instances (negative
// data, empty unsatisfiable covering rows, ...).
var ErrBadInstance = errors.New("ilp: invalid instance")

// Builder accumulates an instance. Every row's terms go into one flat array
// (row j is terms[rows[j-1].end:rows[j].end]), so a row costs no allocation
// of its own.
type Builder struct {
	kind    Kind
	weights []int64
	terms   []Term
	rows    []rowEnd
	err     error
}

// rowEnd is where a row's terms end in Builder.terms, and its rhs.
type rowEnd struct {
	end int
	rhs float64
}

// NewBuilder returns a builder for an instance of the given kind with the
// given variable weights (one per variable; all must be >= 0).
func NewBuilder(kind Kind, weights []int64) *Builder {
	return &Builder{kind: kind, weights: append([]int64(nil), weights...), err: checkHeader(kind, weights)}
}

// checkHeader validates an instance's kind and weights. A negative weight
// is reported ahead of an unknown kind.
func checkHeader(kind Kind, weights []int64) error {
	for i, w := range weights {
		if w < 0 {
			return fmt.Errorf("%w: negative weight on variable %d", ErrBadInstance, i)
		}
	}
	if kind != Packing && kind != Covering {
		return fmt.Errorf("%w: unknown kind %d", ErrBadInstance, kind)
	}
	return nil
}

// AddConstraint records a row, sorted by variable, with a repeated
// variable's terms merged into one whose coefficient is their sum.
// Nonpositive coefficients and out-of-range variables invalidate the
// builder (the paper's formulation requires A >= 0; zero coefficients
// should simply be omitted), and so does a merged coefficient that
// overflows.
func (b *Builder) AddConstraint(terms []Term, rhs float64) *Builder {
	if b.err != nil {
		return b
	}
	if rhs < 0 || math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		b.err = fmt.Errorf("%w: bad rhs %v", ErrBadInstance, rhs)
		return b
	}
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(b.weights) {
			b.err = fmt.Errorf("%w: variable %d out of range", ErrBadInstance, t.Var)
			return b
		}
		if t.Coeff <= 0 || math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
			b.err = fmt.Errorf("%w: nonpositive coefficient %v on variable %d", ErrBadInstance, t.Coeff, t.Var)
			return b
		}
	}
	start := len(b.terms)
	b.terms = append(b.terms, terms...)
	row := b.terms[start:]
	slices.SortFunc(row, func(x, y Term) int { return x.Var - y.Var })
	k := 0
	for i, t := range row {
		if i > 0 && row[k-1].Var == t.Var {
			row[k-1].Coeff += t.Coeff
			if math.IsInf(row[k-1].Coeff, 0) {
				b.err = fmt.Errorf("%w: coefficients on variable %d overflow", ErrBadInstance, t.Var)
				return b
			}
			continue
		}
		row[k] = t
		k++
	}
	b.terms = b.terms[:start+k]
	b.rows = append(b.rows, rowEnd{len(b.terms), rhs})
	return b
}

// Build finalizes the instance.
func (b *Builder) Build() (*Instance, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.weights)
	inst := &Instance{
		kind:        b.kind,
		weights:     b.weights,
		constraints: make([]Constraint, len(b.rows)),
		conStart:    make([]int32, n+1),
		rank2Unit:   true,
	}
	start := 0
	for ci, r := range b.rows {
		c := Constraint{Terms: b.terms[start:r.end:r.end], B: r.rhs}
		start = r.end
		inst.constraints[ci] = c
		if b.kind == Covering && len(c.Terms) == 0 && c.B > 0 {
			return nil, fmt.Errorf("%w: covering constraint %d has no variables but rhs %v", ErrBadInstance, ci, c.B)
		}
		if len(c.Terms) > 2 || c.B != 1 {
			inst.rank2Unit = false
		}
		for _, t := range c.Terms {
			inst.conStart[t.Var+1]++
			if t.Coeff != 1 {
				inst.rank2Unit = false
			}
		}
	}
	for v := 0; v < n; v++ {
		inst.conStart[v+1] += inst.conStart[v]
	}
	inst.conIDs = make([]int32, inst.conStart[n])
	inst.conCoeffs = make([]float64, inst.conStart[n])
	cursor := slices.Clone(inst.conStart[:n])
	for ci, c := range inst.constraints {
		for _, t := range c.Terms {
			k := cursor[t.Var]
			inst.conIDs[k] = int32(ci)
			inst.conCoeffs[k] = t.Coeff
			cursor[t.Var]++
		}
	}
	return inst, nil
}

// FromGraph returns the edge-form instance of g: one row x_u + x_v <= 1
// (Packing) or >= 1 (Covering) per edge {u < v}, numbered in g.Edges order,
// with the given weights (copied; one per vertex). It is the instance that
// feeding those rows to a Builder produces, built in one exact-sized pass
// over g's CSR, and its Primal is g itself. When len(weights) != g.N() the
// rows go through a Builder, with its errors.
func FromGraph(kind Kind, g *graph.Graph, weights []int64) (*Instance, error) {
	n := g.N()
	if len(weights) != n {
		b := NewBuilder(kind, weights)
		g.Edges(func(u, v int) { b.AddConstraint([]Term{{Var: u, Coeff: 1}, {Var: v, Coeff: 1}}, 1) })
		return b.Build()
	}
	if err := checkHeader(kind, weights); err != nil {
		return nil, err
	}
	offsets, adj := g.CSR()
	if n == 0 {
		offsets = []int32{0}
	}
	m := g.M()
	inst := &Instance{
		kind:        kind,
		weights:     slices.Clone(weights),
		constraints: make([]Constraint, m),
		// Variable v sits in one row per incident edge, so its per-variable
		// view starts where its adjacency does.
		conStart:  offsets,
		conIDs:    make([]int32, len(adj)),
		conCoeffs: make([]float64, len(adj)),
		rank2Unit: true,
		primal:    g,
	}
	terms := make([]Term, 2*m)
	// cursor[v] is the next free slot of v's per-variable view. Rows are
	// numbered by their smaller endpoint, so v's rows to lower neighbours
	// are filled (in increasing order) before v's own turn: each view comes
	// out in increasing row order, aligned with v's adjacency.
	cursor := slices.Clone(offsets[:n])
	j := 0
	for u := 0; u < n; u++ {
		for _, w := range adj[offsets[u]:offsets[u+1]] {
			if int(w) < u {
				continue
			}
			terms[2*j] = Term{Var: u, Coeff: 1}
			terms[2*j+1] = Term{Var: int(w), Coeff: 1}
			inst.constraints[j] = Constraint{Terms: terms[2*j : 2*j+2 : 2*j+2], B: 1}
			inst.conIDs[cursor[u]] = int32(j)
			cursor[u]++
			inst.conIDs[cursor[w]] = int32(j)
			cursor[w]++
			j++
		}
	}
	for k := range inst.conCoeffs {
		inst.conCoeffs[k] = 1
	}
	return inst, nil
}

// Kind returns whether this is a packing or covering instance.
func (inst *Instance) Kind() Kind { return inst.kind }

// NumVars returns the number of variables.
func (inst *Instance) NumVars() int { return len(inst.weights) }

// NumConstraints returns the number of constraints.
func (inst *Instance) NumConstraints() int { return len(inst.constraints) }

// Weight returns the objective weight of variable v.
func (inst *Instance) Weight(v int) int64 { return inst.weights[v] }

// Constraint returns constraint j. The struct aliases internal storage.
func (inst *Instance) Constraint(j int) Constraint { return inst.constraints[j] }

// ConstraintsOf returns the ids of constraints containing variable v, in
// increasing order. The slice aliases internal storage and must not be
// modified.
func (inst *Instance) ConstraintsOf(v int) []int32 {
	return inst.conIDs[inst.conStart[v]:inst.conStart[v+1]:inst.conStart[v+1]]
}

// CoeffsOf returns v's coefficients aligned with ConstraintsOf(v): entry k
// is Coeff(ConstraintsOf(v)[k], v). The slice aliases internal storage and
// must not be modified.
func (inst *Instance) CoeffsOf(v int) []float64 {
	return inst.conCoeffs[inst.conStart[v]:inst.conStart[v+1]:inst.conStart[v+1]]
}

// Coeff returns the coefficient a_{j,v} of variable v in constraint j, or 0
// if v does not occur in it.
func (inst *Instance) Coeff(j, v int) float64 {
	terms := inst.constraints[j].Terms
	i, found := slices.BinarySearchFunc(terms, v, func(t Term, v int) int { return t.Var - v })
	if !found {
		return 0
	}
	return terms[i].Coeff
}

// Rank2Unit reports whether the instance is in edge form: every constraint
// has at most 2 terms, all coefficients 1, all rhs 1. This is the MIS
// (packing) / vertex-cover (covering) shape.
func (inst *Instance) Rank2Unit() bool { return inst.rank2Unit }

// Primal returns the primal (communication) graph of the instance's
// Definition 1.3 hypergraph: variables are vertices, and two variables are
// adjacent when some constraint contains both. For a FromGraph instance it
// is that graph; otherwise it is built on the first call.
func (inst *Instance) Primal() *graph.Graph {
	inst.primalOnce.Do(func() {
		if inst.primal == nil {
			inst.primal = inst.buildPrimal()
		}
	})
	return inst.primal
}

// buildPrimal lists each variable's distinct co-members, marking them with
// a stamp, then transposes those lists in increasing variable order. The
// relation is symmetric, so the transpose holds the same neighbour sets,
// each sorted with no sort.
func (inst *Instance) buildPrimal() *graph.Graph {
	n := len(inst.weights)
	offsets := make([]int32, n+1)
	var raw []int32
	stamp := make([]int32, n) // stamp[u] == v+1: u already listed for v
	for v := 0; v < n; v++ {
		for _, cj := range inst.ConstraintsOf(v) {
			for _, t := range inst.constraints[cj].Terms {
				if t.Var != v && stamp[t.Var] != int32(v+1) {
					stamp[t.Var] = int32(v + 1)
					raw = append(raw, int32(t.Var))
				}
			}
		}
		offsets[v+1] = int32(len(raw))
	}
	adj := make([]int32, len(raw))
	cursor := slices.Clone(offsets[:n])
	for u := 0; u < n; u++ {
		for _, w := range raw[offsets[u]:offsets[u+1]] {
			adj[cursor[w]] = int32(u)
			cursor[w]++
		}
	}
	g, err := graph.FromCSR(offsets, adj)
	if err != nil {
		panic("ilp: primal graph: " + err.Error())
	}
	return g
}

// Solution is a 0/1 assignment to the variables.
type Solution []bool

// NewSolution returns the all-zero solution for the instance.
func (inst *Instance) NewSolution() Solution { return make(Solution, inst.NumVars()) }

// Clone returns a copy of the solution.
func (s Solution) Clone() Solution { return append(Solution(nil), s...) }

// CountOnes returns the number of variables set to 1.
func (s Solution) CountOnes() int {
	c := 0
	for _, v := range s {
		if v {
			c++
		}
	}
	return c
}

// Value returns the objective value w·x of the solution.
func (inst *Instance) Value(s Solution) int64 {
	var total int64
	for v, set := range s {
		if set {
			total += inst.weights[v]
		}
	}
	return total
}

// lhs returns the left-hand side of constraint j under s.
func (inst *Instance) lhs(j int, s Solution) float64 {
	sum := 0.0
	for _, t := range inst.constraints[j].Terms {
		if s[t.Var] {
			sum += t.Coeff
		}
	}
	return sum
}

// Feasible reports whether s satisfies every constraint, returning the first
// violated constraint id otherwise (for diagnostics).
func (inst *Instance) Feasible(s Solution) (bool, int) {
	const tol = 1e-9
	for j := range inst.constraints {
		l := inst.lhs(j, s)
		switch inst.kind {
		case Packing:
			if l > inst.constraints[j].B+tol {
				return false, j
			}
		case Covering:
			if l < inst.constraints[j].B-tol {
				return false, j
			}
		}
	}
	return true, -1
}

// FeasibleOn checks only the constraints whose ids are listed.
func (inst *Instance) FeasibleOn(s Solution, constraintIDs []int32) (bool, int) {
	const tol = 1e-9
	for _, j := range constraintIDs {
		l := inst.lhs(int(j), s)
		switch inst.kind {
		case Packing:
			if l > inst.constraints[j].B+tol {
				return false, int(j)
			}
		case Covering:
			if l < inst.constraints[j].B-tol {
				return false, int(j)
			}
		}
	}
	return true, -1
}

// LocalConstraints returns, per the paper's local-restriction semantics, the
// constraint ids relevant to solving the instance restricted to the vertex
// set marked inSet:
//
//   - packing (Observation 2.1): every constraint touching the set — the
//     local solution sets all outside variables to zero, and must not violate
//     any constraint, including partially-contained ones;
//   - covering (Observation 2.2): only constraints entirely inside the set —
//     inter-cluster constraints are discarded and handled elsewhere.
func (inst *Instance) LocalConstraints(inSet []bool) []int32 {
	var out []int32
	for j, c := range inst.constraints {
		switch inst.kind {
		case Packing:
			touch := false
			for _, t := range c.Terms {
				if inSet[t.Var] {
					touch = true
					break
				}
			}
			if touch {
				out = append(out, int32(j))
			}
		case Covering:
			inside := len(c.Terms) > 0
			for _, t := range c.Terms {
				if !inSet[t.Var] {
					inside = false
					break
				}
			}
			if inside {
				out = append(out, int32(j))
			}
		}
	}
	return out
}

// BoundedIntVar describes one bounded-integer variable x in [0, Max] with
// objective weight Weight, for DecomposeBounded.
type BoundedIntVar struct {
	Weight int64
	Max    int64
}

// BoundedTerm is a coefficient on a bounded-integer variable.
type BoundedTerm struct {
	Var   int
	Coeff float64
}

// BoundedConstraint is a constraint over bounded-integer variables.
type BoundedConstraint struct {
	Terms []BoundedTerm
	B     float64
}

// DecomposeBounded performs the bit-decomposition reduction from Section 1:
// each integer variable x_i in [0, s] becomes ceil(log2(s+1)) binary
// variables x_i^(k) representing its bits, with weight w_i*2^k and
// coefficient a_{j,i}*2^k. It returns the 0/1 instance and a mapping
// bit -> (original variable, bit position) so solutions can be recomposed.
func DecomposeBounded(kind Kind, vars []BoundedIntVar, cons []BoundedConstraint) (*Instance, [][2]int, error) {
	var weights []int64
	var origin [][2]int
	bitStart := make([]int, len(vars))
	for i, v := range vars {
		if v.Max < 0 || v.Weight < 0 {
			return nil, nil, fmt.Errorf("%w: variable %d has negative bound or weight", ErrBadInstance, i)
		}
		bitStart[i] = len(weights)
		// bits = smallest b with 2^b > Max, i.e. enough bits to represent
		// Max; a variable with Max == 0 contributes no bits. As in the
		// paper's reduction, the binary encoding can represent values up to
		// 2^bits - 1 >= Max; for packing instances larger values are already
		// cut off by Ax <= b, and callers with exact upper bounds should add
		// them as explicit constraints.
		bits := 0
		if v.Max > 0 {
			bits = 1
			for (int64(1) << bits) <= v.Max {
				bits++
			}
		}
		for k := 0; k < bits; k++ {
			weights = append(weights, v.Weight<<k)
			origin = append(origin, [2]int{i, k})
		}
	}
	b := NewBuilder(kind, weights)
	for _, c := range cons {
		var terms []Term
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= len(vars) {
				return nil, nil, fmt.Errorf("%w: constraint references variable %d", ErrBadInstance, t.Var)
			}
			start := bitStart[t.Var]
			end := len(weights)
			if t.Var+1 < len(vars) {
				end = bitStart[t.Var+1]
			}
			for k := 0; start+k < end; k++ {
				terms = append(terms, Term{Var: start + k, Coeff: t.Coeff * float64(int64(1)<<k)})
			}
		}
		b.AddConstraint(terms, c.B)
	}
	inst, err := b.Build()
	return inst, origin, err
}

// RecomposeBounded converts a 0/1 solution of a DecomposeBounded instance
// back to integer values of the original variables.
func RecomposeBounded(numVars int, origin [][2]int, s Solution) []int64 {
	out := make([]int64, numVars)
	for bit, set := range s {
		if set {
			ov := origin[bit]
			out[ov[0]] += int64(1) << ov[1]
		}
	}
	return out
}
