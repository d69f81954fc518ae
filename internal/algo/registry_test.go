package algo

import (
	"context"
	"strings"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/ldd"
	"repro/internal/xrand"
)

// quickParams returns small-but-exercising parameters per family so the
// full-registry sweeps stay fast.
func quickParams(t *testing.T, name string) Params {
	t.Helper()
	switch name {
	case "changli", "blackbox":
		return Params{"eps": "0.3", "scale": "0.05", "seed": "2"}
	case "weighted":
		return Params{"eps": "0.3", "scale": "0.05", "seed": "2", "wmax": "5"}
	case "en", "mpx", "sparsecover", "netdecomp":
		return Params{"lambda": "0.4", "seed": "2"}
	case "packing":
		return Params{"problem": "mis", "eps": "0.25", "prep": "2", "seed": "2"}
	case "covering":
		return Params{"problem": "vc", "eps": "0.25", "prep": "2", "seed": "2"}
	case "gkm":
		return Params{"problem": "mis", "eps": "0.25", "scale": "0.4", "seed": "2"}
	case "solve":
		return Params{"problem": "mis"}
	default:
		t.Fatalf("quickParams: unknown algorithm %q — add a case", name)
		return nil
	}
}

// TestEveryFamilyRunsByName is the acceptance sweep: every registered
// algorithm family is invocable by name with a context and returns a
// populated envelope.
func TestEveryFamilyRunsByName(t *testing.T) {
	required := []string{"changli", "weighted", "sparsecover", "netdecomp", "gkm", "covering", "packing", "solve"}
	names := Names()
	for _, want := range required {
		if _, ok := Get(want); !ok {
			t.Fatalf("required family %q not registered (have %v)", want, names)
		}
	}
	g := gen.Cycle(120)
	for _, name := range names {
		res, err := Run(context.Background(), name, g, quickParams(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Algorithm != name {
			t.Fatalf("%s: envelope algorithm = %q", name, res.Algorithm)
		}
		if !strings.HasPrefix(res.Key, name+"|") {
			t.Fatalf("%s: bad cache key %q", name, res.Key)
		}
		if res.Raw == nil && name != "solve" {
			t.Fatalf("%s: envelope carries no raw result", name)
		}
		switch res.Kind {
		case KindDecomposition, KindColoring, KindEdgeCut:
			if len(res.ClusterOf) != g.N() {
				t.Fatalf("%s: ClusterOf has %d entries, want %d", name, len(res.ClusterOf), g.N())
			}
		case KindCover:
			if res.NumClusters == 0 {
				t.Fatalf("%s: empty cover", name)
			}
		case KindILP:
			if len(res.Solution) == 0 {
				t.Fatalf("%s: empty solution", name)
			}
			if !res.Feasible {
				t.Fatalf("%s: infeasible solution", name)
			}
		default:
			t.Fatalf("%s: unknown kind %v", name, res.Kind)
		}
	}
}

func TestAliasesResolve(t *testing.T) {
	for alias, want := range map[string]string{
		"chang-li":     "changli",
		"elkin-neiman": "en",
		"cover":        "sparsecover",
		"net":          "netdecomp",
		"localsolve":   "solve",
	} {
		s, ok := Get(alias)
		if !ok || s.Name != want {
			t.Fatalf("alias %q resolved to %v, want %s", alias, s, want)
		}
	}
}

func TestUnknownAlgorithmAndParams(t *testing.T) {
	g := gen.Cycle(16)
	if _, err := Run(context.Background(), "quantum", g, nil); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Run(context.Background(), "changli", g, Params{"bogus": "1"}); err == nil {
		t.Fatal("unknown parameter accepted")
	}
	if _, err := Run(context.Background(), "changli", g, Params{"eps": "abc"}); err == nil {
		t.Fatal("malformed parameter accepted")
	}
	if _, err := Run(context.Background(), "changli", nil, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestParamsParseAndCanonical(t *testing.T) {
	p, err := ParseParamString("eps=0.30 seed=4 skip2=true")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := Get("changli")
	key, err := s.CacheKey(p)
	if err != nil {
		t.Fatal(err)
	}
	// Canonicalization: 0.30 -> 0.3, defaults applied, workers excluded.
	want := "changli|eps=0.3|ntilde=0|seed=4|scale=0|skip2=true|repair=false"
	if key != want {
		t.Fatalf("key = %q, want %q", key, want)
	}
	// A spelled-out default and an omitted one share a slot.
	p2, _ := ParseParamString("eps=.3 seed=4 skip2=true scale=0.0 workers=7")
	key2, err := s.CacheKey(p2)
	if err != nil {
		t.Fatal(err)
	}
	if key2 != want {
		t.Fatalf("equivalent params keyed differently: %q vs %q", key2, want)
	}
	if _, err := ParseParams([]string{"noequals"}); err == nil {
		t.Fatal("bad token accepted")
	}
	if _, err := ParseParams([]string{"a=1", "a=2"}); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

// TestChangLiRunMatchesDirect pins the registry's changli runner to the
// direct package entry point: same seed, same output.
func TestChangLiRunMatchesDirect(t *testing.T) {
	g := gen.RandomRegular(200, 4, xrand.New(3))
	res, err := Run(context.Background(), "changli", g, Params{"eps": "0.3", "seed": "5", "scale": "0.05"})
	if err != nil {
		t.Fatal(err)
	}
	direct := ldd.ChangLi(g, ldd.Params{Epsilon: 0.3, Seed: 5, Scale: 0.05})
	if res.NumClusters != direct.NumClusters || res.Unclustered != direct.UnclusteredCount() {
		t.Fatalf("registry runner diverged: got (%d, %d), want (%d, %d)",
			res.NumClusters, res.Unclustered, direct.NumClusters, direct.UnclusteredCount())
	}
	for v := range direct.ClusterOf {
		if res.ClusterOf[v] != direct.ClusterOf[v] {
			t.Fatalf("ClusterOf[%d] = %d, direct = %d", v, res.ClusterOf[v], direct.ClusterOf[v])
		}
	}
}

func TestMarkdownTableListsEveryAlgorithm(t *testing.T) {
	table := MarkdownTable()
	for _, name := range Names() {
		if !strings.Contains(table, "`"+name+"`") {
			t.Fatalf("markdown table missing %s:\n%s", name, table)
		}
	}
}

func TestSummaryShapes(t *testing.T) {
	g := gen.Cycle(80)
	for _, name := range []string{"changli", "sparsecover", "netdecomp", "solve", "mpx"} {
		res, err := Run(context.Background(), name, g, quickParams(t, name))
		if err != nil {
			t.Fatal(err)
		}
		if s := res.Summary(); !strings.Contains(s, "rounds=") || !strings.Contains(s, "elapsed=") {
			t.Fatalf("%s: malformed summary %q", name, s)
		}
	}
}
