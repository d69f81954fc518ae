// Package algo is the unified algorithm registry: one name-indexed serving
// surface over every algorithm family in the reproduction. Each registered
// Spec maps a name (plus aliases) to a typed runner
//
//	Run(ctx, *graph.Graph, Params) (*Result, error)
//
// with declared parameters (flag- and trace-string-friendly key=value
// bags), capability metadata (weighted? seeded? worker pool?), and a
// uniform Result envelope (clusters, colors, rounds, objective value,
// quality metrics, timing). The engine, the HTTP serving layer
// (internal/server), the CLIs, and the experiment harness all invoke
// algorithms through this registry, so every family is servable,
// traceable, and deadline-bounded: runners thread their context through
// the compute layers, which poll it in their outer phase loops — the same
// plumbing that lets a disconnected HTTP client cancel its computation.
//
// Cache keys: Spec.CacheKey canonicalizes a parameter bag into a stable
// "name|k=v|..." string in declaration order, excluding NoCache parameters
// (parallelism knobs that cannot change the result). internal/engine keys
// its result cache by (graph fingerprint, CacheKey).
package algo

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/ldd"
)

// Kind classifies a registered algorithm's output shape.
type Kind int

const (
	// KindDecomposition partitions (a subset of) the vertices into
	// low-diameter clusters (ClusterOf / Unclustered).
	KindDecomposition Kind = iota + 1
	// KindCover produces overlapping clusters (Clusters / multiplicity).
	KindCover
	// KindColoring is a colored network decomposition (ClusterOf+ColorOf).
	KindColoring
	// KindEdgeCut is an edge decomposition (ClusterOf + cut edges).
	KindEdgeCut
	// KindILP approximates a packing or covering ILP built on the graph
	// (Solution / Value).
	KindILP
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDecomposition:
		return "decomposition"
	case KindCover:
		return "cover"
	case KindColoring:
		return "coloring"
	case KindEdgeCut:
		return "edge-cut"
	case KindILP:
		return "ilp"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Capabilities is the machine-readable metadata of a Spec.
type Capabilities struct {
	// Kind is the output shape.
	Kind Kind
	// Seeded reports whether a seed parameter drives the randomness
	// (seeded runs are deterministic for a fixed seed).
	Seeded bool
	// Weighted reports whether the algorithm consumes vertex weights.
	Weighted bool
	// Workers reports whether the algorithm fans out across the worker
	// pool (a workers parameter, excluded from cache keys).
	Workers bool
	// Repairable reports whether the family supports delta repair: a
	// cached result computed on an ancestor graph can be patched onto a
	// descendant differing by a few edges instead of recomputed (derived
	// from Spec.Repair at registration).
	Repairable bool
}

// Runner is the uniform entry signature of every registered algorithm.
type Runner func(ctx context.Context, g *graph.Graph, p Params) (*Result, error)

// Repairer delta-repairs a cached result onto gv: old was computed (under
// the same parameters p) on an ancestor graph that differs from gv by
// delta. Implementations return a fresh envelope satisfying the same
// quality invariants as a full run, or an error wrapping
// ldd.ErrRepairFallback when only a full recompute can. The graph arrives
// as a read view so overlay-backed store snapshots repair without
// materializing a CSR; repairs that genuinely need one (re-carves)
// materialize it themselves via the view.
type Repairer func(ctx context.Context, gv graph.View, old *Result, p Params, delta ldd.EdgeDelta) (*Result, error)

// Spec is one registry entry.
type Spec struct {
	// Name is the canonical registry name (lowercase, no spaces).
	Name string
	// Aliases are accepted alternative names (legacy CLI spellings).
	Aliases []string
	// Summary is a one-line description for the generated docs table.
	Summary string
	// Caps is the capability metadata.
	Caps Capabilities
	// Defs declares the parameters in canonical (cache-key) order.
	Defs []ParamDef
	// Run is the typed runner.
	Run Runner
	// Repair, when non-nil, is the family's delta-repair entry point
	// (invoked through RepairSpec; sets Caps.Repairable).
	Repair Repairer
}

// Validate rejects parameter keys the spec does not declare, so typos in
// traces and flags fail loudly instead of silently running defaults.
func (s *Spec) Validate(p Params) error {
	for k := range p {
		if s.def(k) == nil {
			return fmt.Errorf("algo %s: unknown param %q (have %s)", s.Name, k, s.paramKeys())
		}
	}
	return nil
}

// Has reports whether the spec declares a parameter named key; CLIs use it
// to forward only the flags an algorithm understands.
func (s *Spec) Has(key string) bool { return s.def(key) != nil }

func (s *Spec) def(key string) *ParamDef {
	for i := range s.Defs {
		if s.Defs[i].Key == key {
			return &s.Defs[i]
		}
	}
	return nil
}

func (s *Spec) paramKeys() string {
	keys := make([]string, len(s.Defs))
	for i, d := range s.Defs {
		keys[i] = d.Key
	}
	return strings.Join(keys, ",")
}

// CacheKey canonicalizes p into the stable cache-key string
// "name|k=v|...": every cacheable parameter in declaration order, with
// defaults applied and values reformatted canonically, so equal-result
// requests collide regardless of spelling. Unknown keys are rejected.
func (s *Spec) CacheKey(p Params) (string, error) {
	if err := s.Validate(p); err != nil {
		return "", err
	}
	// Keys are short: a constant-capacity buffer stays on the stack, so
	// the returned string is the only allocation (a longer key grows the
	// buffer onto the heap).
	b := make([]byte, 0, 256)
	b = append(b, s.Name...)
	for _, d := range s.Defs {
		if d.NoCache {
			continue
		}
		raw, present := p[d.Key]
		if !present {
			raw = d.Default
		}
		b = append(b, '|')
		b = append(b, d.Key...)
		b = append(b, '=')
		var err error
		if b, err = d.appendCanonical(b, raw); err != nil {
			return "", fmt.Errorf("algo %s: %w", s.Name, err)
		}
	}
	return string(b), nil
}

// --- Registry --------------------------------------------------------------

var (
	specs  []*Spec
	byName = map[string]*Spec{}
)

// Register adds a Spec to the registry; duplicate names panic (registration
// happens at init time).
func Register(s *Spec) {
	s.Caps.Repairable = s.Repair != nil
	names := append([]string{s.Name}, s.Aliases...)
	for _, n := range names {
		if _, dup := byName[n]; dup {
			panic("algo: duplicate registration of " + n)
		}
		byName[n] = s
	}
	specs = append(specs, s)
}

// Get resolves a name or alias.
func Get(name string) (*Spec, bool) {
	s, ok := byName[name]
	return s, ok
}

// Names returns the canonical names in sorted order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

// All returns the registered specs sorted by name.
func All() []*Spec {
	out := append([]*Spec(nil), specs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run resolves name, validates p, and executes the runner, stamping the
// envelope with the algorithm name, canonical key, kind, and wall time.
// The context is threaded through the whole compute stack: cancel it (or
// give it a deadline) and the run returns ctx.Err() promptly.
func Run(ctx context.Context, name string, g *graph.Graph, p Params) (*Result, error) {
	s, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("algo: unknown algorithm %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return s.RunSpec(ctx, g, p)
}

// RunSpec is Run for an already-resolved Spec.
func (s *Spec) RunSpec(ctx context.Context, g *graph.Graph, p Params) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("algo %s: nil graph", s.Name)
	}
	if err := s.Validate(p); err != nil {
		return nil, err
	}
	key, err := s.CacheKey(p)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := s.Run(ctx, g, p)
	if err != nil {
		return nil, err
	}
	res.Algorithm = s.Name
	res.Key = key
	res.Kind = s.Caps.Kind
	res.Elapsed = time.Since(start)
	return res, nil
}

// RepairSpec is RunSpec for the delta-repair path: it validates p, invokes
// the family's Repairer against the cached envelope old, and stamps the
// repaired envelope identically to a full run (same Algorithm/Key/Kind, a
// fresh Elapsed covering only the repair work). Families without a
// Repairer return an error wrapping ldd.ErrRepairFallback.
func (s *Spec) RepairSpec(ctx context.Context, gv graph.View, old *Result, p Params, delta ldd.EdgeDelta) (*Result, error) {
	if s.Repair == nil {
		return nil, fmt.Errorf("%w: algo %s is not repairable", ldd.ErrRepairFallback, s.Name)
	}
	if gv == nil {
		return nil, fmt.Errorf("algo %s: nil graph view", s.Name)
	}
	if old == nil {
		return nil, fmt.Errorf("%w: algo %s: nil cached result", ldd.ErrRepairFallback, s.Name)
	}
	if err := s.Validate(p); err != nil {
		return nil, err
	}
	key, err := s.CacheKey(p)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := s.Repair(ctx, gv, old, p, delta)
	if err != nil {
		return nil, err
	}
	res.Algorithm = s.Name
	res.Key = key
	res.Kind = s.Caps.Kind
	res.Elapsed = time.Since(start)
	return res, nil
}
