#!/bin/sh
# Chaos benchmark: sweep seeded fault injection over all five evaluation
# benchmarks in informed mode and report completion / retry / degradation
# counts (a table, plus the same as JSON). The run exits nonzero if any
# seeded informed flow fails to deliver a feasible design (the
# graceful-degradation acceptance bar — see docs/FAULTS.md).
#
# Knobs (environment):
#   CHAOS_RATE   injection probability per instrumented op (default 0.2)
#   CHAOS_SEEDS  number of consecutive seeds, starting at 1 (default 5)
#   CHAOS_OUT    keep the JSON report at this path (default: a temp file,
#                removed when the run ends)
set -eu

cd "$(dirname "$0")/.."

RATE="${CHAOS_RATE:-0.2}"
SEEDS="${CHAOS_SEEDS:-5}"
OUT="${CHAOS_OUT:-}"
if [ -z "$OUT" ]; then
    OUT="$(mktemp)"
    trap 'rm -f "$OUT"' EXIT
fi

go run ./cmd/psabench -chaos \
    -faults "seed=1,rate=${RATE}" \
    -chaos-runs "${SEEDS}" \
    -chaos-json "${OUT}"
