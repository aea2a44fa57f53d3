#!/usr/bin/env bash
# Runs the cycle-engine benchmarks (NoC packet simulation, the NoC
# engine's idle and loaded step cost per topology, throughput sweep,
# graph workloads, chaos survival) and the per-trial Fig. 6
# connectivity analyzers, and records the results as JSON in
# BENCH_noc.json so CI and successive optimization PRs can track ns/op
# and allocs/op over time.
#
# Recorded numbers are the MINIMUM ns/op (and its B/op, allocs/op, iters)
# across BENCH_COUNT repetitions of each benchmark — min-of-counts is the
# standard noise filter for tracking regressions, since scheduling and
# frequency jitter only ever add time.
#
# Environment knobs:
#   BENCH_PATTERN  benchmark regexp   (default: every benchmark listed above)
#   BENCH_TIME     -benchtime value   (default: 3s; CI smoke uses 1x)
#   BENCH_COUNT    -count value       (default: 3; CI smoke uses 1)
#   BENCH_OUT      output JSON path   (default: BENCH_noc.json)
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-BenchmarkSimStep|BenchmarkFig7PacketSim|BenchmarkAnalyticalThroughput|BenchmarkNoCThroughput|BenchmarkE1GraphWorkloads|BenchmarkWaferBFS|BenchmarkChaosBFSSurvival|BenchmarkParetoTwoTier|BenchmarkWorkloadTransformerBlock|BenchmarkFig6Trial}"
TIME="${BENCH_TIME:-3s}"
COUNT="${BENCH_COUNT:-3}"
OUT="${BENCH_OUT:-BENCH_noc.json}"

raw=$(go test -run='^$' -bench="$PATTERN" -benchtime="$TIME" -benchmem -count="$COUNT" . ./internal/noc/)
echo "$raw"

# Host metadata makes the recorded numbers comparable across machines:
# a regression is only a regression against the same core count.
hostmeta=$(go run ./scripts/hostmeta 2>/dev/null || echo '{}')

echo "$raw" | awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v count="$COUNT" -v hostmeta="$hostmeta" '
# Benchmarks may emit extra ReportMetric columns between ns/op and
# B/op, so locate each value by its unit suffix instead of position.
# With -count > 1 each benchmark repeats; keep the repetition with the
# lowest ns/op.
/^Benchmark/ && /ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = b = al = "null"
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        else if ($i == "B/op") b = $(i-1)
        else if ($i == "allocs/op") al = $(i-1)
    }
    if (!(name in best) || ns + 0 < best[name] + 0) {
        best[name] = ns; iters[name] = $2; bytes[name] = b; allocs[name] = al
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    }
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"count\": %d,\n  \"host\": %s,\n  \"benchmarks\": [\n", date, count, hostmeta
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n",
            name, iters[name], best[name], bytes[name], allocs[name], (i < n ? "," : "")
    }
    print "  ]\n}"
}
' > "$OUT"
echo "wrote $OUT"
