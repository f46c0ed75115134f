#!/usr/bin/env bash
set -euo pipefail

# scripts/bench.sh — run the repository's benchmarks and append one JSON
# line per result to BENCH_trajectory.jsonl. The file is append-only:
# every run adds rows, none is rewritten, so the file is the performance
# trajectory across changes. The parts, in order:
#
#   perfbench  the four perfbench workloads (kernel, serve-batch,
#              proxy-single, online), untraced: the end-to-end metrics
#              BENCHMARK.json gates on, at its run_seconds window
#   traced     one traced perfbench run: the per-layer metrics of every
#              workload (L0 kernel → L1 handler → L2 loopback → L3 proxy)
#   l0         the BenchmarkKernelEval matrix, l ∈ {5..8} × d ∈ {2,5,10},
#              at -cpu 1 and -cpu 2
#   coldload   BenchmarkColdLoad: file on disk → first evaluation
#
# Every row carries the commit ("-dirty" when tracked files differ from
# it), the UTC date, the seed, nproc, GOMAXPROCS and the Go version.
# perfbench always runs at seed 1 and BENCHMARK.json's window, so rows
# from different changes compare like for like. A perfbench row holds
# perfbench's result line under "result"; a go-test row holds the
# benchmark's name, its GOMAXPROCS as "cpu", and one key per reported
# unit (ns/op → ns_per_op, points/s → points_per_s).
#
# Usage, from the repository root:
#   make bench                                  # every part
#   bash scripts/bench.sh l0 coldload           # only the named parts
#   BENCHTIME=1x OUT=/tmp/t.jsonl make bench    # smoke: one iteration per go benchmark
#
# Needs only Go and bash. A perfbench run that finds a wrong value or a
# broken counter identity fails the script.

cd "$(dirname "$0")/.."

OUT=${OUT:-BENCH_trajectory.jsonl}
BENCHTIME=${BENCHTIME:-500ms}
seed=1
parts=("$@")
if [ ${#parts[@]} -eq 0 ]; then
    parts=(perfbench traced l0 coldload)
fi

window=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet HEAD -- . ':(exclude)BENCH_trajectory.jsonl'; then
    commit+=-dirty
fi
stamp=$(printf '"commit":"%s","date":"%s","seed":%s,"nproc":%s,"gomaxprocs":%s,"go":"%s"' \
    "$commit" "$(date -u +%FT%TZ)" "$seed" "$(nproc)" "${GOMAXPROCS:-$(nproc)}" "$(go env GOVERSION)")

log=$(mktemp)
trap 'rm -f "$log"' EXIT

# runperf PART WORKLOAD TRACE appends perfbench's result line.
runperf() {
    bash perfbench/run.sh --workload "$2" --seed "$seed" --seconds "$window" --trace "$3" | tee "$log"
    local line
    line=$(tail -n 1 "$log")
    if [[ $line != '{"correct":true,'* ]]; then
        echo "bench.sh: perfbench $2 --trace $3 printed no result line" >&2
        exit 1
    fi
    printf '{%s,"part":"%s","workload":"%s","seconds":%s,"result":%s}\n' \
        "$stamp" "$1" "$2" "$window" "$line" >>"$OUT"
}

# gobench PART PATTERN [go test flags...] appends one line per benchmark.
gobench() {
    local part=$1 pattern=$2
    shift 2
    go test -run '^$' -bench "$pattern" -benchmem -benchtime "$BENCHTIME" -timeout 60m "$@" . | tee "$log"
    local rows
    rows=$(awk -v stamp="$stamp" -v part="$part" -v bt="$BENCHTIME" '
        /^Benchmark/ {
            name = $1; cpu = 1
            if (match(name, /-[0-9]+$/)) {
                cpu = substr(name, RSTART + 1)
                name = substr(name, 1, RSTART - 1)
            }
            printf "{%s,\"part\":\"%s\",\"benchtime\":\"%s\",\"name\":\"%s\",\"cpu\":%s,\"iters\":%s", stamp, part, bt, name, cpu, $2
            for (i = 3; i + 1 <= NF; i += 2) {
                key = $(i + 1)
                gsub(/\//, "_per_", key)
                gsub(/[^A-Za-z0-9_]/, "_", key)
                printf ",\"%s\":%s", key, $i
            }
            print "}"
        }' "$log")
    if [ -z "$rows" ]; then
        echo "bench.sh: $part: no benchmark lines for $pattern" >&2
        exit 1
    fi
    printf '%s\n' "$rows" >>"$OUT"
}

for part in "${parts[@]}"; do
    case $part in
    perfbench)
        for w in kernel serve-batch proxy-single online; do
            runperf perfbench "$w" 0
        done
        ;;
    traced) runperf traced serve-batch 1 ;;
    l0) gobench l0 '^BenchmarkKernelEval$' -cpu 1,2 ;;
    coldload) gobench coldload '^BenchmarkColdLoad$' ;;
    *)
        echo "bench.sh: unknown part $part (perfbench, traced, l0, coldload)" >&2
        exit 2
        ;;
    esac
done
echo "bench.sh: appended to $OUT ($(wc -l <"$OUT") rows)"
