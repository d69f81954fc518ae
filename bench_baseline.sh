#!/usr/bin/env bash
# bench_baseline.sh — capture the benchmark baseline for the current
# revision so the perf trajectory is tracked PR over PR.
#
# Runs the algorithm micro-benchmarks (BenchmarkAlgo*, the suite the CI
# serial gate compares) by default, or any pattern over the root package,
# ./internal/engine, ./internal/graph and ./internal/server (experiments
# BenchmarkE*, serving-layer BenchmarkEngine*, traversal kernels
# BenchmarkPar*, HTTP loopback BenchmarkServer*), with -benchmem and
# writes the parsed results to BENCH_<rev>.json (one object per benchmark: name,
# iterations, ns/op, B/op, allocs/op, plus any custom ReportMetric
# columns — the engine benchmarks report sampled hit-latency tails as
# p99-ns/p50-ns, which land in the JSON as p99_ns/p50_ns per run).
#
# Usage:
#   ./bench_baseline.sh            # BenchmarkAlgo*, count=1 (quick snapshot)
#   COUNT=3 ./bench_baseline.sh    # repeated runs for stabler numbers
#   BENCH='BenchmarkE|BenchmarkAlgo' ./bench_baseline.sh  # add the experiments
#   BENCH='BenchmarkE5.*' ./bench_baseline.sh   # restrict the pattern
#   CPU=8 OUT=BENCH_par8.json ./bench_baseline.sh  # contention runs: pass
#       -cpu to go test (benchmark names gain a -8 suffix) and name the
#       output explicitly so parallel-run numbers don't overwrite the
#       sequential baseline
#   CPU=1,4 OUT=BENCH_sweep.json ./bench_baseline.sh  # serial/parallel
#       sweep in one file: each benchmark runs at -cpu 1 and -cpu 4
#       (the -cpu 4 rows get a -4 suffix, the -cpu 1 rows none), so one
#       capture shows the scaling;
#       cmd/benchdiff compares the -cpu 1 rows against a serial baseline
#       and warns when two baselines were taken under different
#       GOMAXPROCS
set -euo pipefail
cd "$(dirname "$0")"

REV=$(git rev-parse --short HEAD 2>/dev/null || echo "worktree")
# Uncommitted changes to tracked files produce numbers that are not HEAD's:
# label them so the rev-to-numbers mapping stays honest. Untracked files
# (like this script's own BENCH_*.json output) don't count.
if [ -n "$(git status --porcelain -uno 2>/dev/null)" ]; then
	REV="${REV}-dirty"
fi
COUNT="${COUNT:-1}"
BENCH="${BENCH:-BenchmarkAlgo}"
OUT="${OUT:-BENCH_${REV}.json}"
CPU="${CPU:-}"
CPUFLAG=()
if [ -n "$CPU" ]; then
	CPUFLAG=(-cpu "$CPU")
fi
# BENCHTIME=0.5s shortens each benchmark for CI gates; the default is the
# go test default (1s per benchmark).
BENCHTIME="${BENCHTIME:-}"
if [ -n "$BENCHTIME" ]; then
	CPUFLAG+=(-benchtime "$BENCHTIME")
fi
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# Record the toolchain and parallelism the numbers were taken under, so
# baselines from different machines or Go releases are comparable (or at
# least visibly not). num_cpu is the machine; gomaxprocs is what the Go
# scheduler was actually allowed to use for each row: the -cpu value when
# CPU is set (in a sweep, the row's -N name suffix, and 1 for a row without
# one), otherwise $GOMAXPROCS or the machine's CPU count.
GO_VERSION=$(go version | awk '{print $3}')
NUM_CPU=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 0)
GOMAXPROCS_VAL="${CPU:-${GOMAXPROCS:-$NUM_CPU}}"

echo "running benchmarks ($BENCH, count=$COUNT) ..." >&2
# ${arr[@]+...} keeps the empty-array expansion safe under `set -u` on
# bash < 4.4 (macOS ships 3.2).
go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" ${CPUFLAG[@]+"${CPUFLAG[@]}"} . ./internal/engine/ ./internal/graph/ ./internal/server/ | tee "$RAW" >&2

awk -v rev="$REV" -v gover="$GO_VERSION" -v cpus="$GOMAXPROCS_VAL" -v ncpu="$NUM_CPU" '
BEGIN { print "["; first = 1; sweep = index(cpus, ",") > 0 }
/^Benchmark/ {
    name = $1; iters = $2
    gmp = cpus
    if (sweep) {
        gmp = 1
        if (match(name, /-[0-9]+$/)) {
            n = substr(name, RSTART + 1)
            if (index("," cpus ",", "," n ",") > 0) gmp = n
        }
    }
    line = "    {\"rev\": \"" rev "\", \"go_version\": \"" gover "\", \"gomaxprocs\": " gmp ", \"num_cpu\": " ncpu ", \"name\": \"" name "\", \"iterations\": " iters
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/[^A-Za-z0-9_]/, "_", unit)
        line = line ", \"" unit "\": " $(i)
    }
    line = line "}"
    if (!first) print ","
    printf "%s", line
    first = 0
}
END { print "\n]" }
' "$RAW" > "$OUT"

echo "wrote $OUT" >&2
