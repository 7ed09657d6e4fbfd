#!/usr/bin/env bash
# Runs the perf-trajectory benchmarks and records the results as JSON.
#
# Usage: scripts/bench.sh [label]
#
#   label   optional tag appended to the output filename (default none),
#           e.g. `scripts/bench.sh baseline` -> BENCH_<date>_baseline.json
#
# The benchmark set is the Fig. 5 flow sweep plus the unroll DSE
# meta-program and both interpreter engines (the bytecode VM and the
# tree-walking reference); -benchtime=1x -count=3 gives three single-shot
# samples per benchmark, and the JSON records the best (minimum) ns/op
# together with the run-cache hit rate and interpreter throughput metrics
# reported by bench_test.go.
#
# Set BENCH_RAW=<file> to parse a previously captured `go test -bench`
# output instead of re-running (used to snapshot a baseline).
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-}"
stamp="$(date +%Y-%m-%d)"
out="BENCH_${stamp}${label:+_$label}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

if [ -n "${BENCH_RAW:-}" ]; then
    cp "$BENCH_RAW" "$raw"
else
    go test -run '^$' -bench 'Fig5|UnrollDSE|Interp' -benchtime=1x -count=3 . | tee "$raw"
fi

awk -v date="$stamp" -v label="$label" '
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i < NF; i++) {
        v = $i; unit = $(i + 1)
        if (unit == "ns/op") {
            if (!(name in ns) || v + 0 < ns[name] + 0) ns[name] = v
            if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
        } else if (unit == "cache-hit%") {
            hit[name] = v
        } else if (unit == "interp-Mops/s") {
            if (!(name in mops) || v + 0 > mops[name] + 0) mops[name] = v
        } else if (unit == "allocs/op") {
            if (!(name in allocs) || v + 0 < allocs[name] + 0) allocs[name] = v
        }
    }
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"label\": \"%s\",\n  \"benchmarks\": {\n", date, label
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %s", name, ns[name]
        if (name in hit)  printf ", \"cache_hit_pct\": %s", hit[name]
        if (name in mops) printf ", \"interp_mops_per_s\": %s", mops[name]
        if (name in allocs) printf ", \"allocs_per_op\": %s", allocs[name]
        printf "}%s\n", (i < n ? "," : "")
    }
    printf "  }\n}\n"
}
' "$raw" > "$out"

echo "wrote $out"

# Informational diff against the previous snapshot (override with
# BENCH_BASE=<file>). Regressions print but never fail a bench run; run
# scripts/benchdiff.sh on the pair yourself for its exit status.
base="${BENCH_BASE:-$(grep -l '"ns_per_op"' BENCH_*.json 2>/dev/null | grep -v -F "$out" | tail -1 || true)}"
if [ -n "$base" ] && [ -r "$base" ]; then
    echo "diff vs $base:"
    scripts/benchdiff.sh "$base" "$out" || true
fi
