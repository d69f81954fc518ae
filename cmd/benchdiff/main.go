// Command benchdiff compares two BENCH_<rev>.json baselines produced by
// bench_baseline.sh and prints the per-benchmark ns/op, B/op, and allocs/op
// deltas between the medians of each side's repeated runs, plus the tail metrics the churn benchmarks report (hit_rate,
// p99_ns) when both baselines carry them. With -threshold t (default
// 0.10), any benchmark whose ns/op or p99_ns regressed by more than t (as
// a fraction), or whose hit_rate dropped by more than t, makes the command
// exit with status 1, so CI can gate on latency tails and repair
// effectiveness, not just the mean. Benchmarks present in only one
// baseline are reported as added/removed and never fail the diff — a new
// benchmark in HEAD must not break comparisons against older baselines.
//
// -json switches the report to NDJSON: one object per benchmark with the
// median old/new metrics (including hit_rate/p99_ns when present), the
// relative ns/op delta as a fraction, the regression verdict, and the
// metrics that tripped it (added/removed benchmarks carry a status field
// instead), so dashboards and scripts consume the diff without scraping the
// table. The exit status is the same in both modes.
//
// Baselines record the GOMAXPROCS they were captured under; when the two
// files disagree, benchdiff prints a warning (stderr in -json mode) but
// never fails on it — a 1-CPU baseline against a 4-CPU run measures the
// machine, not the change, and the reader should know that. Rows mixing
// GOMAXPROCS *within* one file are segregated by (name, gomaxprocs) and
// reported as separate "name [gomaxprocs=N]" entries rather than folded
// into a median nobody measured.
//
// Usage:
//
//	benchdiff old.json new.json
//	benchdiff -threshold 0.05 BENCH_45564de.json BENCH_head.json
//	benchdiff -json old.json new.json | jq 'select(.regression)'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	regressions, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if regressions > 0 {
		os.Exit(1)
	}
}

// record is one benchmark's median metrics from one baseline file. Each
// metric keeps its own run count: a baseline mixing -benchmem and plain
// rows for one benchmark must take each metric's median over the rows that
// actually carried it.
type record struct {
	nsPerOp     float64
	bPerOp      float64
	allocsPerOp float64
	hitRate     float64
	p99Ns       float64
	memRuns     int
	rateRuns    int
	p99Runs     int
}

// samples collects one benchmark's per-run values before the medians are
// taken.
type samples struct {
	ns, b, allocs, rate, p99 []float64
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for none. A median, unlike a mean, ignores one
// pass that a noisy host slowed down.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func (r *record) hasMem() bool  { return r.memRuns > 0 }
func (r *record) hasRate() bool { return r.rateRuns > 0 }
func (r *record) hasP99() bool  { return r.p99Runs > 0 }

// loadBaseline parses a bench_baseline.sh JSON file, taking the median of
// repeated entries for the same benchmark (COUNT > 1 runs, or several
// captures concatenated). Rows are segregated by (name, gomaxprocs) first:
// a 1-CPU row and a 4-CPU row for the same benchmark measure different
// machines, and folding them into one median would fabricate a number
// nobody ran. When a name appears under a
// single gomaxprocs, it keys the result map as-is; under several, each
// group gets a "name [gomaxprocs=N]" key so the groups diff independently.
// The second return is the sorted set of distinct gomaxprocs values the
// rows were captured under (empty for baselines predating that field).
func loadBaseline(path string) (map[string]*record, []int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	type rowKey struct {
		name string
		gmp  int
	}
	gset := make(map[int]bool)
	gmpsOf := make(map[string]map[int]bool)
	agg := make(map[rowKey]*samples)
	for i, row := range rows {
		name, ok := row["name"].(string)
		if !ok {
			return nil, nil, fmt.Errorf("%s: entry %d has no benchmark name", path, i)
		}
		ns, ok := row["ns_per_op"].(float64)
		if !ok {
			return nil, nil, fmt.Errorf("%s: %s has no ns_per_op", path, name)
		}
		gmp := 0
		if g, ok := row["gomaxprocs"].(float64); ok && g > 0 {
			gmp = int(g)
			gset[gmp] = true
		}
		if gmpsOf[name] == nil {
			gmpsOf[name] = make(map[int]bool)
		}
		gmpsOf[name][gmp] = true
		r := agg[rowKey{name, gmp}]
		if r == nil {
			r = &samples{}
			agg[rowKey{name, gmp}] = r
		}
		r.ns = append(r.ns, ns)
		if b, ok := row["B_per_op"].(float64); ok {
			r.b = append(r.b, b)
			a, _ := row["allocs_per_op"].(float64)
			r.allocs = append(r.allocs, a)
		}
		if h, ok := row["hit_rate"].(float64); ok {
			r.rate = append(r.rate, h)
		}
		if p, ok := row["p99_ns"].(float64); ok {
			r.p99 = append(r.p99, p)
		}
	}
	out := make(map[string]*record, len(agg))
	for k, sm := range agg {
		r := &record{
			nsPerOp:     median(sm.ns),
			bPerOp:      median(sm.b),
			allocsPerOp: median(sm.allocs),
			hitRate:     median(sm.rate),
			p99Ns:       median(sm.p99),
			memRuns:     len(sm.b),
			rateRuns:    len(sm.rate),
			p99Runs:     len(sm.p99),
		}
		key := k.name
		if len(gmpsOf[k.name]) > 1 {
			key = fmt.Sprintf("%s [gomaxprocs=%d]", k.name, k.gmp)
		}
		out[key] = r
	}
	gmp := make([]int, 0, len(gset))
	for g := range gset {
		gmp = append(gmp, g)
	}
	sort.Ints(gmp)
	return out, gmp, nil
}

// gomaxprocsWarning renders the mismatch warning when the two baselines
// were captured under different GOMAXPROCS: ns/op deltas then partly
// measure machine shape, not the code change, so the diff warns instead
// of gating. Baselines predating the gomaxprocs field never warn.
func gomaxprocsWarning(old, new []int) string {
	if len(old) == 0 || len(new) == 0 || slices.Equal(old, new) {
		return ""
	}
	return fmt.Sprintf("warning: baselines captured under different GOMAXPROCS (old %v, new %v); ns/op deltas partly reflect parallelism, not the code change", old, new)
}

// delta formats a relative change; new baselines of 0 against old 0 are a
// wash, anything growing from 0 is reported as absolute.
func delta(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "0%"
		}
		return fmt.Sprintf("+%g (from 0)", new)
	}
	return fmt.Sprintf("%+.1f%%", 100*(new-old)/old)
}

// regressReasons lists the metrics that regressed beyond the threshold for
// one benchmark pair: ns/op or p99_ns growing past it, or hit_rate falling
// past it. Tail metrics are judged only when both baselines carry them —
// an old baseline without churn benchmarks cannot fail the new gate.
func regressReasons(o, n *record, threshold float64) []string {
	var rs []string
	if o.nsPerOp > 0 && (n.nsPerOp-o.nsPerOp)/o.nsPerOp > threshold {
		rs = append(rs, "ns/op")
	}
	if o.hasP99() && n.hasP99() && o.p99Ns > 0 && (n.p99Ns-o.p99Ns)/o.p99Ns > threshold {
		rs = append(rs, "p99_ns")
	}
	if o.hasRate() && n.hasRate() && o.hitRate > 0 && (o.hitRate-n.hitRate)/o.hitRate > threshold {
		rs = append(rs, "hit_rate")
	}
	return rs
}

func run(args []string, w io.Writer) (regressions int, err error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(w)
	threshold := fs.Float64("threshold", 0.10, "ns/op regression fraction that fails the diff")
	asJSON := fs.Bool("json", false, "emit NDJSON delta records instead of the table")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.NArg() != 2 {
		return 0, fmt.Errorf("want exactly two baseline files, got %d", fs.NArg())
	}
	if *threshold < 0 {
		return 0, fmt.Errorf("threshold must be >= 0")
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	oldBase, oldGMP, err := loadBaseline(oldPath)
	if err != nil {
		return 0, err
	}
	newBase, newGMP, err := loadBaseline(newPath)
	if err != nil {
		return 0, err
	}
	if warn := gomaxprocsWarning(oldGMP, newGMP); warn != "" {
		// In -json mode the warning goes to stderr so stdout stays NDJSON.
		if *asJSON {
			fmt.Fprintln(os.Stderr, warn)
		} else {
			fmt.Fprintln(w, warn)
		}
	}

	names := make([]string, 0, len(oldBase))
	for name := range oldBase {
		if _, ok := newBase[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(oldBase) == 0 && len(newBase) == 0 {
		return 0, fmt.Errorf("no benchmarks in either %s or %s", oldPath, newPath)
	}
	if *asJSON {
		return runJSON(w, names, oldBase, newBase, *threshold)
	}
	if len(names) == 0 {
		fmt.Fprintf(w, "no common benchmarks between %s and %s; only added/removed entries follow\n", oldPath, newPath)
	}

	tw := newTabWriter(w)
	fmt.Fprintf(tw, "benchmark\tns/op old\tns/op new\tdelta\tB/op\tallocs/op\tp99\thit_rate\n")
	for _, name := range names {
		o, n := oldBase[name], newBase[name]
		mark := ""
		if reasons := regressReasons(o, n, *threshold); len(reasons) > 0 {
			regressions++
			mark = "  << REGRESSION (" + strings.Join(reasons, ", ") + ")"
		}
		memCols := "-\t-"
		if o.hasMem() && n.hasMem() {
			memCols = fmt.Sprintf("%s\t%s", delta(o.bPerOp, n.bPerOp), delta(o.allocsPerOp, n.allocsPerOp))
		}
		p99Col := "-"
		if o.hasP99() && n.hasP99() {
			p99Col = delta(o.p99Ns, n.p99Ns)
		}
		rateCol := "-"
		if o.hasRate() && n.hasRate() {
			rateCol = fmt.Sprintf("%.3f->%.3f", o.hitRate, n.hitRate)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%s\t%s\t%s\t%s%s\n",
			name, o.nsPerOp, n.nsPerOp, delta(o.nsPerOp, n.nsPerOp), memCols, p99Col, rateCol, mark)
	}
	tw.Flush()

	// One-sided benchmarks are informational, never fatal: report them
	// sorted as removed (old only) / added (new only) and continue.
	var removed, added []string
	for name := range oldBase {
		if _, ok := newBase[name]; !ok {
			removed = append(removed, name)
		}
	}
	for name := range newBase {
		if _, ok := oldBase[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(removed)
	sort.Strings(added)
	for _, name := range removed {
		fmt.Fprintf(w, "removed (only in %s): %s\n", oldPath, name)
	}
	for _, name := range added {
		fmt.Fprintf(w, "added (only in %s): %s\n", newPath, name)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d benchmark(s) regressed beyond %.0f%% (ns/op, p99_ns, or hit_rate)\n", regressions, 100**threshold)
	}
	return regressions, nil
}

func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// jsonDelta is one NDJSON line of the -json report. Pointer fields are
// omitted when the metric is absent on that side (added/removed benchmarks,
// baselines without -benchmem rows).
type jsonDelta struct {
	Name       string   `json:"name"`
	Status     string   `json:"status"` // "common" | "added" | "removed"
	NsPerOpOld *float64 `json:"ns_per_op_old,omitempty"`
	NsPerOpNew *float64 `json:"ns_per_op_new,omitempty"`
	Delta      *float64 `json:"delta,omitempty"` // fractional ns/op change
	Regression bool     `json:"regression"`
	Reasons    []string `json:"regression_reasons,omitempty"`
	BPerOpOld  *float64 `json:"b_per_op_old,omitempty"`
	BPerOpNew  *float64 `json:"b_per_op_new,omitempty"`
	AllocsOld  *float64 `json:"allocs_per_op_old,omitempty"`
	AllocsNew  *float64 `json:"allocs_per_op_new,omitempty"`
	HitRateOld *float64 `json:"hit_rate_old,omitempty"`
	HitRateNew *float64 `json:"hit_rate_new,omitempty"`
	P99NsOld   *float64 `json:"p99_ns_old,omitempty"`
	P99NsNew   *float64 `json:"p99_ns_new,omitempty"`
}

// runJSON emits the diff as NDJSON: common benchmarks first (sorted), then
// removed and added ones. Regression accounting matches the table mode.
func runJSON(w io.Writer, names []string, oldBase, newBase map[string]*record, threshold float64) (regressions int, err error) {
	enc := json.NewEncoder(w)
	f := func(v float64) *float64 { return &v }
	for _, name := range names {
		o, n := oldBase[name], newBase[name]
		d := jsonDelta{
			Name: name, Status: "common",
			NsPerOpOld: f(o.nsPerOp), NsPerOpNew: f(n.nsPerOp),
		}
		if o.nsPerOp > 0 {
			d.Delta = f((n.nsPerOp - o.nsPerOp) / o.nsPerOp)
		}
		if reasons := regressReasons(o, n, threshold); len(reasons) > 0 {
			regressions++
			d.Regression = true
			d.Reasons = reasons
		}
		if o.hasMem() && n.hasMem() {
			d.BPerOpOld, d.BPerOpNew = f(o.bPerOp), f(n.bPerOp)
			d.AllocsOld, d.AllocsNew = f(o.allocsPerOp), f(n.allocsPerOp)
		}
		if o.hasRate() && n.hasRate() {
			d.HitRateOld, d.HitRateNew = f(o.hitRate), f(n.hitRate)
		}
		if o.hasP99() && n.hasP99() {
			d.P99NsOld, d.P99NsNew = f(o.p99Ns), f(n.p99Ns)
		}
		if err := enc.Encode(d); err != nil {
			return regressions, err
		}
	}
	oneSided := func(base map[string]*record, other map[string]*record) []string {
		var out []string
		for name := range base {
			if _, ok := other[name]; !ok {
				out = append(out, name)
			}
		}
		sort.Strings(out)
		return out
	}
	for _, name := range oneSided(oldBase, newBase) {
		o := oldBase[name]
		if err := enc.Encode(jsonDelta{Name: name, Status: "removed", NsPerOpOld: f(o.nsPerOp)}); err != nil {
			return regressions, err
		}
	}
	for _, name := range oneSided(newBase, oldBase) {
		n := newBase[name]
		if err := enc.Encode(jsonDelta{Name: name, Status: "added", NsPerOpNew: f(n.nsPerOp)}); err != nil {
			return regressions, err
		}
	}
	return regressions, nil
}
