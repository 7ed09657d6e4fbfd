#!/bin/sh
# Dispatch-count fixture: rewrites internal/interp/testdata/dispatch.golden,
# the exact number of times each clause of the VM's dispatch loop runs on
# one run of each bundled application (go test -covermode=count profiles of
# TestDispatchCounts, one process per application; the clauses are found
# with go/ast in scripts/dispatch/main.go). With -check it writes nothing
# and fails, printing the lines that differ, when the counts are not the
# fixture's. A change to the lowering or to dispatch states its effect as
# the diff this writes.
set -eu

cd "$(dirname "$0")/.."

exec go run ./scripts/dispatch "$@"
