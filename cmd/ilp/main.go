// Command ilp builds a packing or covering problem on a generated graph and
// approximates it through the algorithm registry (internal/algo): the
// Chang–Li (PODC 2023) solvers, the GKM17 baseline, or the centralized
// local-solver dispatcher, all invocable by name and deadline-bounded with
// -timeout. It reports value, ratio against the exact optimum when one is
// computable, and the LOCAL round complexity.
//
// Usage:
//
//	ilp -problem mis -graph cycle -n 200 -eps 0.25 -algo chang-li
//	ilp -problem mds -graph tree -n 60 -algo gkm -scale 0.4
//	ilp -problem vc -graph grid -n 400 -algo solve -timeout 5s
//
// Problems: mis, vc, mds, kdom (use -k), matching. -algo chang-li resolves
// to the packing or covering solver by the problem's kind; any registry
// ILP name (packing, covering, gkm, solve) is accepted directly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/ilp"
	"repro/internal/problems"
	"repro/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ilp:", err)
		os.Exit(1)
	}
}

func buildGraph(kind string, n int, seed uint64) (*graph.Graph, error) {
	if n < 2 {
		return nil, errors.New("n must be >= 2")
	}
	rng := xrand.New(seed + 0x11b)
	switch kind {
	case "cycle":
		return gen.Cycle(n), nil
	case "path":
		return gen.Path(n), nil
	case "grid":
		side := int(math.Round(math.Sqrt(float64(n))))
		return gen.Grid(side, side), nil
	case "torus":
		side := int(math.Round(math.Sqrt(float64(n))))
		return gen.Torus(side, side), nil
	case "tree":
		return gen.RandomTree(n, rng), nil
	case "btree":
		depth := int(math.Ceil(math.Log2(float64(n + 1))))
		return gen.CompleteDAryTree(2, depth-1), nil
	case "gnp":
		return gen.GNP(n, 4/float64(n), rng), nil
	default:
		return nil, fmt.Errorf("unknown graph %q", kind)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ilp", flag.ContinueOnError)
	probName := fs.String("problem", "mis", problems.Names)
	graphKind := fs.String("graph", "cycle", "graph family")
	n := fs.Int("n", 200, "approximate vertex count")
	k := fs.Int("k", 2, "distance for kdom")
	eps := fs.Float64("eps", 0.25, "approximation parameter")
	algoName := fs.String("algo", "chang-li", "chang-li | gkm | packing | covering | solve")
	seed := fs.Uint64("seed", 1, "random seed")
	scale := fs.Float64("scale", 0, "radius scale (0 = paper constants)")
	prep := fs.Int("prep", 3, "preparation decompositions (0 = paper's 16 ln n)")
	timeout := fs.Duration("timeout", 0, "deadline for the solve (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prob, err := problems.ByName(*probName, *k)
	if err != nil {
		return err
	}
	g, err := buildGraph(*graphKind, *n, *seed)
	if err != nil {
		return err
	}

	// chang-li resolves to the Theorem 1.2 / 1.3 solver by problem kind;
	// anything else must be an ILP-capable registry name.
	name := *algoName
	if name == "chang-li" {
		if prob.Kind() == ilp.Packing {
			name = "packing"
		} else {
			name = "covering"
		}
	}
	spec, ok := algo.Get(name)
	if !ok || spec.Caps.Kind != algo.KindILP {
		return fmt.Errorf("unknown ILP algorithm %q (want chang-li, gkm, packing, covering, or solve)", *algoName)
	}

	p := algo.Params{
		"problem": *probName,
		"k":       strconv.Itoa(*k),
	}
	setIf := func(key, val string) {
		if spec.Has(key) {
			p[key] = val
		}
	}
	setIf("eps", strconv.FormatFloat(*eps, 'g', -1, 64))
	setIf("seed", strconv.FormatUint(*seed, 10))
	setIf("scale", strconv.FormatFloat(*scale, 'g', -1, 64))
	setIf("prep", strconv.Itoa(*prep))

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := spec.RunSpec(ctx, g, p)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("solve exceeded the %v deadline: %w", *timeout, err)
		}
		return err
	}

	fmt.Fprintf(w, "%s on %v via %s:\n", prob, g, spec.Name)
	fmt.Fprintf(w, "value=%d rounds=%d feasible=%v", res.Value, res.Rounds, res.Feasible)

	// Verification against the problem semantics (not just the ILP).
	var verified bool
	if prob == problems.KDominatingSet {
		verified = problems.VerifyK(prob, *k, g, res.Solution)
	} else {
		verified = problems.Verify(prob, g, res.Solution)
	}
	if !verified {
		fmt.Fprintln(w)
		return fmt.Errorf("verification failed: solution is not a valid %s", prob)
	}

	// Ratio against the exact optimum when a poly-time oracle applies.
	if optVal, oerr := problems.ExactOptimum(prob, g); oerr == nil && optVal > 0 {
		ratio := float64(res.Value) / float64(optVal)
		fmt.Fprintf(w, " optimum=%d\n", optVal)
		target := 1 - *eps
		cmp := ">="
		if prob.Kind() == ilp.Covering {
			target = 1 + *eps
			cmp = "<="
		}
		fmt.Fprintf(w, "ratio %.4f (target %s %.4f, exact local solves: %v)\n",
			ratio, cmp, target, res.Exact)
	} else {
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "verified: valid %s\n", prob)
	return nil
}
