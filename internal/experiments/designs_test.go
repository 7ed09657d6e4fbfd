package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/minic"
	"psaflow/internal/tasks"
)

// designsFixture records every leaf design of every application × flow
// mode × ResourceSharing: its label, RefLOC, LOC and AddedLOC, and the
// SHA-256 of its rendered source and of its printed program, as the code
// generators and printer emitted them before printing wrote into one
// buffer without fmt. It is frozen: a change to it is a change to what the
// designs say, made by hand.
const designsFixture = "testdata/designs.golden"

// referenceLOC is CountLOC's definition, spelled the obvious way: the
// lines that strings.TrimSpace leaves something of.
func referenceLOC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// designsTable runs every flow and lists its leaf designs, checking
// CountLOC against referenceLOC on each rendered source and printed program,
// and that each infeasible design says why.
func designsTable(t *testing.T) string {
	var sb strings.Builder
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
				checkReasons(t, b.Name, results)
				fmt.Fprintf(&sb, "== %s mode=%s sharing=%t\n", b.Name, mode, sharing)
				for _, r := range results {
					d := r.Design
					printed := minic.Print(d.Prog)
					checkLOC(t, d.Label()+" program", printed)
					fmt.Fprintf(&sb, "%s ref=%d prog=%x", d.Label(), d.RefLOC, sha256.Sum256([]byte(printed)))
					if a := d.Artifact; a != nil {
						checkLOC(t, d.Label()+" source", a.Source)
						fmt.Fprintf(&sb, " loc=%d added=%d src=%x", a.LOC, a.AddedLOC, sha256.Sum256([]byte(a.Source)))
					} else {
						fmt.Fprintf(&sb, " infeasible=%q", d.Infeasible)
					}
					sb.WriteByte('\n')
				}
			}
		}
	}
	return sb.String()
}

// TestDesignsFixture: every design the flows emit is byte-identical to the
// fixture's, and CountLOC agrees with referenceLOC on every rendered source
// and printed program.
func TestDesignsFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every flow (use without -short)")
	}
	got := designsTable(t)
	want, err := os.ReadFile(designsFixture)
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
			t.Errorf("%s line %d:\n got %q\nwant %q", designsFixture, i+1, g, w)
			if shown++; shown == 10 {
				t.Fatal("more differences not shown")
			}
		}
	}
}

func checkLOC(t *testing.T, what, src string) {
	t.Helper()
	if got, want := minic.CountLOC(src), referenceLOC(src); got != want {
		t.Errorf("%s: CountLOC = %d, reference %d", what, got, want)
	}
}
