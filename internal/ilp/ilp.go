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
// The hypergraph and its primal graph are built on the first Hypergraph
// call, not by Build: the local solvers build many small per-region
// instances that never ask for it.
package ilp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/hypergraph"
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

// Instance is an immutable packing or covering ILP. Build with NewBuilder.
// It is safe for concurrent use.
type Instance struct {
	kind        Kind
	weights     []int64
	constraints []Constraint
	// Variable v's terms, in constraint order: conIDs[conStart[v]:
	// conStart[v+1]] holds the constraint ids and conCoeffs the matching
	// Coeff values. A variable repeated in one constraint repeats its id.
	conStart  []int32
	conIDs    []int32
	conCoeffs []float64
	rank2Unit bool
	hyperOnce sync.Once
	hyper     *hypergraph.H // built by the first Hypergraph call
}

// ErrBadInstance is returned for structurally invalid instances (negative
// data, empty unsatisfiable covering rows, ...).
var ErrBadInstance = errors.New("ilp: invalid instance")

// Builder accumulates an instance.
type Builder struct {
	kind    Kind
	weights []int64
	cons    []Constraint
	err     error
}

// NewBuilder returns a builder for an instance of the given kind with the
// given variable weights (one per variable; all must be >= 0).
func NewBuilder(kind Kind, weights []int64) *Builder {
	b := &Builder{kind: kind, weights: append([]int64(nil), weights...)}
	if kind != Packing && kind != Covering {
		b.err = fmt.Errorf("%w: unknown kind %d", ErrBadInstance, kind)
	}
	for i, w := range weights {
		if w < 0 {
			b.err = fmt.Errorf("%w: negative weight on variable %d", ErrBadInstance, i)
			break
		}
	}
	return b
}

// AddConstraint records a row. Nonpositive coefficients and out-of-range
// variables invalidate the builder (the paper's formulation requires
// A >= 0; zero coefficients should simply be omitted).
func (b *Builder) AddConstraint(terms []Term, rhs float64) *Builder {
	if b.err != nil {
		return b
	}
	if rhs < 0 || math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		b.err = fmt.Errorf("%w: bad rhs %v", ErrBadInstance, rhs)
		return b
	}
	row := Constraint{Terms: make([]Term, 0, len(terms)), B: rhs}
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(b.weights) {
			b.err = fmt.Errorf("%w: variable %d out of range", ErrBadInstance, t.Var)
			return b
		}
		if t.Coeff <= 0 || math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
			b.err = fmt.Errorf("%w: nonpositive coefficient %v on variable %d", ErrBadInstance, t.Coeff, t.Var)
			return b
		}
		row.Terms = append(row.Terms, t)
	}
	slices.SortFunc(row.Terms, func(x, y Term) int { return x.Var - y.Var })
	b.cons = append(b.cons, row)
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
		constraints: b.cons,
		conStart:    make([]int32, n+1),
		rank2Unit:   true,
	}
	for ci, c := range b.cons {
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
	for ci, c := range b.cons {
		var coeff float64
		for i, t := range c.Terms {
			// Terms are sorted by variable, so a repeated variable's run
			// starts with the term Coeff finds.
			if i == 0 || c.Terms[i-1].Var != t.Var {
				coeff = t.Coeff
			}
			k := cursor[t.Var]
			inst.conIDs[k] = int32(ci)
			inst.conCoeffs[k] = coeff
			cursor[t.Var]++
		}
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

// TotalWeight returns the sum of all variable weights (the paper assumes
// this is polynomial in n).
func (inst *Instance) TotalWeight() int64 {
	var s int64
	for _, w := range inst.weights {
		s += w
	}
	return s
}

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
// if v does not occur in it (the first term if it occurs twice).
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

// Hypergraph returns the Definition 1.3 hypergraph of the instance, built
// on the first call.
func (inst *Instance) Hypergraph() *hypergraph.H {
	inst.hyperOnce.Do(func() {
		hb := hypergraph.NewBuilder(len(inst.weights))
		vars := []int{}
		for _, c := range inst.constraints {
			vars = vars[:0]
			for _, t := range c.Terms {
				vars = append(vars, t.Var)
			}
			hb.AddEdge(vars...)
		}
		inst.hyper = hb.Build()
	})
	return inst.hyper
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

// WeightOf returns W(s, S) = sum over v in subset of w_v * s(v), the
// paper's restricted-weight notation.
func (inst *Instance) WeightOf(s Solution, subset []int32) int64 {
	var total int64
	for _, v := range subset {
		if s[v] {
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
