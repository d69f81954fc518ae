package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const oldBase = `[
    {"rev": "aaa", "name": "BenchmarkFoo-8", "iterations": 10, "ns_per_op": 1000, "B_per_op": 512, "allocs_per_op": 10},
    {"rev": "aaa", "name": "BenchmarkBar-8", "iterations": 10, "ns_per_op": 2000, "B_per_op": 0, "allocs_per_op": 0},
    {"rev": "aaa", "name": "BenchmarkGone-8", "iterations": 5, "ns_per_op": 50}
]`

func TestDiffNoRegression(t *testing.T) {
	dir := t.TempDir()
	o := writeBaseline(t, dir, "old.json", oldBase)
	n := writeBaseline(t, dir, "new.json", `[
        {"rev": "bbb", "name": "BenchmarkFoo-8", "iterations": 10, "ns_per_op": 900, "B_per_op": 256, "allocs_per_op": 5},
        {"rev": "bbb", "name": "BenchmarkBar-8", "iterations": 10, "ns_per_op": 2100, "B_per_op": 0, "allocs_per_op": 0},
        {"rev": "bbb", "name": "BenchmarkNew-8", "iterations": 5, "ns_per_op": 1}
    ]`)
	var out strings.Builder
	reg, err := run([]string{o, n}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if reg != 0 {
		t.Fatalf("reported %d regressions within threshold:\n%s", reg, out.String())
	}
	for _, want := range []string{"BenchmarkFoo-8", "-10.0%", "removed (only in " + o + "): BenchmarkGone-8", "added (only in " + n + "): BenchmarkNew-8"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestDiffRegressionExceedsThreshold(t *testing.T) {
	dir := t.TempDir()
	o := writeBaseline(t, dir, "old.json", oldBase)
	n := writeBaseline(t, dir, "new.json", `[
        {"rev": "bbb", "name": "BenchmarkFoo-8", "iterations": 10, "ns_per_op": 1500, "B_per_op": 512, "allocs_per_op": 10},
        {"rev": "bbb", "name": "BenchmarkBar-8", "iterations": 10, "ns_per_op": 2000, "B_per_op": 0, "allocs_per_op": 0}
    ]`)
	var out strings.Builder
	reg, err := run([]string{o, n}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if reg != 1 {
		t.Fatalf("want 1 regression, got %d:\n%s", reg, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("regression not flagged:\n%s", out.String())
	}
	// A looser threshold passes the same pair.
	reg, err = run([]string{"-threshold", "0.6", o, n}, io.Discard)
	if err != nil || reg != 0 {
		t.Fatalf("threshold 0.6: reg=%d err=%v", reg, err)
	}
}

func TestMedianOfRepeatedRuns(t *testing.T) {
	dir := t.TempDir()
	// One slow pass (900) among three: the median is 110, the mean 370.
	o := writeBaseline(t, dir, "old.json", `[
        {"rev": "a", "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 100},
        {"rev": "a", "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 900},
        {"rev": "a", "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 110}
    ]`)
	// Head's own slow pass (1000) must not count either: median 115.
	n := writeBaseline(t, dir, "new.json", `[
        {"rev": "b", "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 1000},
        {"rev": "b", "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 115},
        {"rev": "b", "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 112}
    ]`)
	// 110 -> 115 is +4.5%: under a 5% threshold, over a 4% one. Means
	// (370 -> 409, +10.5%) would fail both.
	var out strings.Builder
	reg, err := run([]string{"-threshold", "0.05", o, n}, &out)
	if err != nil || reg != 0 {
		t.Fatalf("threshold 0.05: reg=%d err=%v\n%s", reg, err, out.String())
	}
	if !strings.Contains(out.String(), "+4.5%") {
		t.Fatalf("want the median delta +4.5%%:\n%s", out.String())
	}
	reg, err = run([]string{"-threshold", "0.04", o, n}, io.Discard)
	if err != nil || reg != 1 {
		t.Fatalf("threshold 0.04: reg=%d err=%v", reg, err)
	}
	// An even count takes the mean of the two middle runs: 100 and 300
	// give 200, so 210 is a 5% regression, under the default 10%.
	o = writeBaseline(t, dir, "old2.json", `[
        {"rev": "a", "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 100},
        {"rev": "a", "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 300}
    ]`)
	n = writeBaseline(t, dir, "new2.json", `[
        {"rev": "b", "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 210}
    ]`)
	reg, err = run([]string{o, n}, io.Discard)
	if err != nil || reg != 0 {
		t.Fatalf("even count: reg=%d err=%v", reg, err)
	}
	reg, err = run([]string{"-threshold", "0.01", o, n}, io.Discard)
	if err != nil || reg != 1 {
		t.Fatalf("even count, tight threshold: reg=%d err=%v", reg, err)
	}
}

func TestMixedGomaxprocsRowsAreSegregated(t *testing.T) {
	dir := t.TempDir()
	// One baseline holding rows captured under different GOMAXPROCS: these
	// measure different machine shapes and must not melt into one median.
	o := writeBaseline(t, dir, "old.json", `[
        {"rev": "a", "gomaxprocs": 1, "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 1000},
        {"rev": "a", "gomaxprocs": 4, "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 100}
    ]`)
	n := writeBaseline(t, dir, "new.json", `[
        {"rev": "b", "gomaxprocs": 1, "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 1000},
        {"rev": "b", "gomaxprocs": 4, "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 200}
    ]`)
	// The 4-CPU group doubled (100 -> 200). Blended medians would show
	// 550 -> 600 (+9%), sliding under the default 10% gate.
	var out strings.Builder
	reg, err := run([]string{o, n}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if reg != 1 {
		t.Fatalf("want the gomaxprocs=4 regression caught, got %d:\n%s", reg, out.String())
	}
	for _, want := range []string{"[gomaxprocs=1]", "[gomaxprocs=4]"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing segregated group %q:\n%s", want, out.String())
		}
	}
}

func TestMemAverageIgnoresRowsWithoutMemFields(t *testing.T) {
	dir := t.TempDir()
	// One -benchmem row (B/op 512) and one plain row: the B/op median must
	// be 512, taken over the one row that carried it.
	o := writeBaseline(t, dir, "old.json", `[
        {"rev": "a", "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 100, "B_per_op": 512, "allocs_per_op": 4},
        {"rev": "a", "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 100}
    ]`)
	n := writeBaseline(t, dir, "new.json", `[
        {"rev": "b", "name": "BenchmarkFoo-8", "iterations": 1, "ns_per_op": 100, "B_per_op": 512, "allocs_per_op": 4}
    ]`)
	var out strings.Builder
	if _, err := run([]string{o, n}, &out); err != nil {
		t.Fatal(err)
	}
	// Equal true medians: the B/op delta must be +0.0%, which only holds
	// if the plain row was left out.
	if !strings.Contains(out.String(), "+0.0%") {
		t.Fatalf("mem average wrong:\n%s", out.String())
	}
}

// TestTailMetricGate pins the churn-benchmark gate: a p99_ns regression or
// a hit_rate drop beyond the threshold fails the diff even when ns/op is
// flat, and the -json report carries the tail metrics plus the reasons.
func TestTailMetricGate(t *testing.T) {
	dir := t.TempDir()
	o := writeBaseline(t, dir, "old.json", `[
        {"rev": "a", "name": "BenchmarkEngineChurnRepair", "iterations": 100, "ns_per_op": 70000, "hit_rate": 0.99, "p99_ns": 150000}
    ]`)
	n := writeBaseline(t, dir, "new.json", `[
        {"rev": "b", "name": "BenchmarkEngineChurnRepair", "iterations": 100, "ns_per_op": 70000, "hit_rate": 0.80, "p99_ns": 3000000}
    ]`)
	var out strings.Builder
	reg, err := run([]string{"-json", o, n}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if reg != 1 {
		t.Fatalf("want 1 regression, got %d:\n%s", reg, out.String())
	}
	var row map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(out.String())), &row); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if row["regression"] != true {
		t.Fatalf("regression not flagged: %v", row)
	}
	reasons := fmt.Sprint(row["regression_reasons"])
	for _, want := range []string{"p99_ns", "hit_rate"} {
		if !strings.Contains(reasons, want) {
			t.Fatalf("reasons %q missing %q", reasons, want)
		}
	}
	if row["hit_rate_old"].(float64) != 0.99 || row["p99_ns_new"].(float64) != 3000000 {
		t.Fatalf("tail metrics missing from JSON: %v", row)
	}
	// Table mode flags the same pair and shows the tail columns.
	var tbl strings.Builder
	if reg, err = run([]string{o, n}, &tbl); err != nil || reg != 1 {
		t.Fatalf("table mode: reg=%d err=%v", reg, err)
	}
	for _, want := range []string{"REGRESSION", "0.990->0.800"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, tbl.String())
		}
	}
	// An old baseline without tail metrics never trips the tail gate.
	plain := writeBaseline(t, dir, "plain.json", `[
        {"rev": "c", "name": "BenchmarkEngineChurnRepair", "iterations": 100, "ns_per_op": 70000}
    ]`)
	if reg, err = run([]string{plain, n}, io.Discard); err != nil || reg != 0 {
		t.Fatalf("tail-less old baseline: reg=%d err=%v", reg, err)
	}
}

func TestDiffErrors(t *testing.T) {
	dir := t.TempDir()
	good := writeBaseline(t, dir, "good.json", oldBase)
	bad := writeBaseline(t, dir, "bad.json", "{not json")
	noName := writeBaseline(t, dir, "noname.json", `[{"ns_per_op": 5}]`)
	noNs := writeBaseline(t, dir, "nons.json", `[{"name": "BenchmarkX-8"}]`)
	empty := writeBaseline(t, dir, "empty.json", `[]`)
	for _, args := range [][]string{
		{good},
		{good, bad},
		{good, noName},
		{good, noNs},
		{empty, empty},
		{good, filepath.Join(dir, "missing.json")},
		{"-threshold", "-1", good, good},
	} {
		if _, err := run(args, io.Discard); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestDisjointBaselinesDoNotFail pins the added/removed satellite: a
// benchmark present in only one baseline is reported and the diff
// continues with exit status 0, even when nothing is common.
func TestDisjointBaselinesDoNotFail(t *testing.T) {
	dir := t.TempDir()
	good := writeBaseline(t, dir, "good.json", oldBase)
	disjoint := writeBaseline(t, dir, "disjoint.json", `[{"name": "BenchmarkOther-8", "ns_per_op": 5}]`)
	var out strings.Builder
	regressions, err := run([]string{good, disjoint}, &out)
	if err != nil {
		t.Fatalf("disjoint baselines failed: %v", err)
	}
	if regressions != 0 {
		t.Fatalf("regressions = %d, want 0", regressions)
	}
	for _, want := range []string{"no common benchmarks", "added (only in " + disjoint + "): BenchmarkOther-8"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestJSONMode pins the -json NDJSON report: one valid JSON object per
// benchmark, common entries carrying old/new metrics and the fractional
// delta, one-sided entries tagged added/removed, and the same regression
// accounting as the table.
func TestJSONMode(t *testing.T) {
	dir := t.TempDir()
	o := writeBaseline(t, dir, "old.json", oldBase)
	n := writeBaseline(t, dir, "new.json", `[
        {"rev": "bbb", "name": "BenchmarkFoo-8", "iterations": 10, "ns_per_op": 1500, "B_per_op": 512, "allocs_per_op": 10},
        {"rev": "bbb", "name": "BenchmarkBar-8", "iterations": 10, "ns_per_op": 2000, "B_per_op": 0, "allocs_per_op": 0},
        {"rev": "bbb", "name": "BenchmarkNew-8", "iterations": 5, "ns_per_op": 1}
    ]`)
	var out strings.Builder
	reg, err := run([]string{"-json", o, n}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if reg != 1 {
		t.Fatalf("want 1 regression, got %d:\n%s", reg, out.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	byName := map[string]map[string]any{}
	for i, line := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		byName[row["name"].(string)] = row
	}
	if len(byName) != 4 {
		t.Fatalf("want 4 records, got %d:\n%s", len(byName), out.String())
	}
	foo := byName["BenchmarkFoo-8"]
	if foo["status"] != "common" || foo["regression"] != true {
		t.Fatalf("Foo record: %v", foo)
	}
	if d := foo["delta"].(float64); d < 0.49 || d > 0.51 {
		t.Fatalf("Foo delta = %v, want 0.5", d)
	}
	if foo["b_per_op_new"].(float64) != 512 {
		t.Fatalf("Foo mem fields: %v", foo)
	}
	if bar := byName["BenchmarkBar-8"]; bar["regression"] != false || bar["delta"].(float64) != 0 {
		t.Fatalf("Bar record: %v", bar)
	}
	if gone := byName["BenchmarkGone-8"]; gone["status"] != "removed" || gone["ns_per_op_new"] != nil {
		t.Fatalf("Gone record: %v", gone)
	}
	if nw := byName["BenchmarkNew-8"]; nw["status"] != "added" || nw["ns_per_op_old"] != nil {
		t.Fatalf("New record: %v", nw)
	}
}

func TestGomaxprocsMismatchWarnsNotFails(t *testing.T) {
	dir := t.TempDir()
	o := writeBaseline(t, dir, "old.json", `[
        {"rev": "aaa", "gomaxprocs": 1, "name": "BenchmarkFoo", "iterations": 10, "ns_per_op": 1000}
    ]`)
	n := writeBaseline(t, dir, "new.json", `[
        {"rev": "bbb", "gomaxprocs": 4, "name": "BenchmarkFoo", "iterations": 10, "ns_per_op": 1050}
    ]`)
	var out strings.Builder
	reg, err := run([]string{o, n}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if reg != 0 {
		t.Fatalf("GOMAXPROCS mismatch must warn, not fail: %d regressions\n%s", reg, out.String())
	}
	if !strings.Contains(out.String(), "different GOMAXPROCS") {
		t.Fatalf("warning missing:\n%s", out.String())
	}

	// Matching values (and baselines without the field) stay silent.
	same := writeBaseline(t, dir, "same.json", `[
        {"rev": "ccc", "gomaxprocs": 4, "name": "BenchmarkFoo", "iterations": 10, "ns_per_op": 1050}
    ]`)
	legacy := writeBaseline(t, dir, "legacy.json", `[
        {"rev": "ddd", "name": "BenchmarkFoo", "iterations": 10, "ns_per_op": 1050}
    ]`)
	for _, pair := range [][2]string{{n, same}, {legacy, n}, {n, legacy}} {
		out.Reset()
		if _, err := run([]string{pair[0], pair[1]}, &out); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out.String(), "GOMAXPROCS") {
			t.Fatalf("unexpected warning for %v:\n%s", pair, out.String())
		}
	}
}
