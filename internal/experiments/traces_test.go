package experiments

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/flowlang"
	"psaflow/internal/tasks"
)

// tracesFixture holds every trace line of every leaf design of every
// application × flow mode × ResourceSharing, then of every application run
// through examples/flows/faults.psa at the seed that document sets, as
// core.TraceLines rendered them when each line was formatted at the moment
// it was recorded. It is frozen: a change to it is a change to what the
// designs say about themselves, made by hand.
const tracesFixture = "testdata/traces.golden"

// faultsDocument is the flow document whose injected faults and retries
// the fixture's last section records.
const faultsDocument = "../../examples/flows/faults.psa"

// tracesTable runs every flow and lists the trace lines of its designs.
func tracesTable(t *testing.T) string {
	var sb strings.Builder
	writeDesigns := func(results []DesignResult) {
		for _, r := range results {
			fmt.Fprintf(&sb, "-- %s\n", r.Design.Label())
			for _, line := range core.TraceLines(r.Design.Trace) {
				sb.WriteString(line)
				sb.WriteByte('\n')
			}
		}
	}
	runs := core.NewRunCache()
	for _, b := range bench.All() {
		for _, sharing := range []bool{false, true} {
			for _, mode := range []tasks.Mode{tasks.Uninformed, tasks.Informed} {
				results, err := RunBenchmarkEnv(context.Background(), b, nil,
					tasks.FlowOptions{Mode: mode, Strategy: tasks.DefaultStrategy, ResourceSharing: sharing},
					JobEnv{}, nil, nil, runs)
				if err != nil {
					t.Fatalf("%s: %v", b.Name, err)
				}
				fmt.Fprintf(&sb, "== %s mode=%s sharing=%t\n", b.Name, mode, sharing)
				writeDesigns(results)
			}
		}
	}
	src, err := os.ReadFile(faultsDocument)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bench.All() {
		opts := tasks.FlowOptions{Mode: tasks.Uninformed, Strategy: tasks.DefaultStrategy}
		doc, err := flowlang.CompileSource(string(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		env, err := ResolveEnv(Settings{}, doc, Settings{})
		if err != nil {
			t.Fatal(err)
		}
		// A fresh run cache: a cached run is never asked for again, so the
		// faults a run would meet depend on what ran before it otherwise.
		results, err := RunBenchmarkEnv(context.Background(), b, nil, opts, env, nil, nil, core.NewRunCache())
		fmt.Fprintf(&sb, "== %s faults.psa\n", b.Name)
		if err != nil {
			fmt.Fprintf(&sb, "error: %v\n", err)
			continue
		}
		writeDesigns(results)
	}
	return sb.String()
}

// TestTracesFixture: every trace line every design carries is
// byte-identical to the fixture's.
func TestTracesFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every flow (use without -short)")
	}
	matchLines(t, tracesFixture, tracesTable(t))
}

// matchLines compares got with the fixture at path line by line.
func matchLines(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got %q\nwant %q", path, i+1, g, w)
			if shown++; shown == 10 {
				t.Fatal("more differences not shown")
			}
		}
	}
}
