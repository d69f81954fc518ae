package algo

import (
	"context"
	"strconv"

	"repro/internal/graph"
	"repro/internal/ldd"
)

// This file bridges the typed changli parameters to the registry for the
// engine's typed hot path (Engine.ChangLi, behind ClusterOf): a fast
// cache-key builder instead of a Params bag round-trip, and the matching
// Params constructor. TestTypedKeysMatchGeneric pins the fast key to
// Spec.CacheKey over the corresponding Params, so the two paths can never
// drift apart and always share cache slots.

// ChangLiKey is the cache key of a changli run under p (repair=false).
// Hand-assembled with strconv appends: this runs on the engine's
// cache-hit path, where fmt.Sprintf would be the dominant cost.
func ChangLiKey(p ldd.Params) string {
	var b [96]byte
	buf := append(b[:0], "changli|eps="...)
	buf = strconv.AppendFloat(buf, p.Epsilon, 'g', -1, 64)
	buf = append(buf, "|ntilde="...)
	buf = strconv.AppendInt(buf, int64(p.NTilde), 10)
	buf = append(buf, "|seed="...)
	buf = strconv.AppendUint(buf, p.Seed, 10)
	buf = append(buf, "|scale="...)
	buf = strconv.AppendFloat(buf, p.Scale, 'g', -1, 64)
	buf = append(buf, "|skip2="...)
	buf = strconv.AppendBool(buf, p.SkipPhase2)
	buf = append(buf, "|repair=false"...)
	return string(buf)
}

// ChangLiParams converts an ldd.Params to the registry bag.
func ChangLiParams(p ldd.Params) Params {
	return Params{
		"eps":     formatFloat(p.Epsilon),
		"ntilde":  strconv.Itoa(p.NTilde),
		"seed":    strconv.FormatUint(p.Seed, 10),
		"scale":   formatFloat(p.Scale),
		"skip2":   strconv.FormatBool(p.SkipPhase2),
		"workers": strconv.Itoa(p.Workers),
	}
}

// RunChangLi executes the changli family directly from typed params,
// returning the registry envelope (used by the engine's compute path).
func RunChangLi(ctx context.Context, g *graph.Graph, p ldd.Params) (*Result, error) {
	s, _ := Get("changli")
	return s.RunSpec(ctx, g, ChangLiParams(p))
}

// RepairChangLi delta-repairs a cached changli envelope onto the view gv
// from typed params (the engine's repair path).
func RepairChangLi(ctx context.Context, gv graph.View, old *Result, p ldd.Params, delta ldd.EdgeDelta) (*Result, error) {
	s, _ := Get("changli")
	return s.RepairSpec(ctx, gv, old, ChangLiParams(p), delta)
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
