package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
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
// and that each infeasible design says why. start makes each flow's input
// design.
func designsTable(t *testing.T, start func(b *bench.Benchmark) *core.Design) string {
	var sb strings.Builder
	runs := core.NewRunCache()
	for _, b := range bench.All() {
		for _, sharing := range []bool{false, true} {
			for _, mode := range []tasks.Mode{tasks.Uninformed, tasks.Informed} {
				results, err := RunDesignEnv(context.Background(), b, start(b),
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
	matchFixture(t, designsTable(t, func(b *bench.Benchmark) *core.Design { return core.NewDesign(b.Name, b.Parse()) }))
}

// TestDesignsFixtureSharedStart: the flows emit the fixture's designs too
// when every flow of an application starts shared on one program
// (core.SharedDesign, as the daemon starts a resubmitted program), and
// that program prints and fingerprints as parsed after them all.
func TestDesignsFixtureSharedStart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every flow (use without -short)")
	}
	kept := map[string]*minic.Program{}
	for _, b := range bench.All() {
		kept[b.Name] = b.Parse()
	}
	got := designsTable(t, func(b *bench.Benchmark) *core.Design {
		prog := kept[b.Name]
		return core.SharedDesign(b.Name, prog, minic.CountLOC(minic.Print(prog)))
	})
	matchFixture(t, got)
	for _, b := range bench.All() {
		if minic.Print(kept[b.Name]) != minic.Print(b.Parse()) || minic.Fingerprint(kept[b.Name]) != minic.Fingerprint(b.Parse()) {
			t.Errorf("%s: the flows started shared on its program wrote it", b.Name)
		}
	}
}

// TestRenderConcurrent: the generators append into scratch from one pool,
// so a design rendered while others render must come out as it does alone.
// Every leaf design of the five apps (both modes, with and without
// ResourceSharing) is rendered from 8 goroutines at once, each starting at
// a different design and going round all of them twice, and each render
// must be byte-equal to the sequential one, which must equal what the flow
// rendered.
func TestRenderConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every flow (use without -short)")
	}
	var designs []*core.Design
	runs := core.NewRunCache()
	for _, b := range bench.All() {
		for _, sharing := range []bool{false, true} {
			for _, mode := range []tasks.Mode{tasks.Uninformed, tasks.Informed} {
				results, err := RunDesignEnv(context.Background(), b, core.NewDesign(b.Name, b.Parse()),
					tasks.FlowOptions{Mode: mode, Strategy: tasks.DefaultStrategy, ResourceSharing: sharing},
					JobEnv{}, nil, nil, runs)
				if err != nil {
					t.Fatalf("%s: %v", b.Name, err)
				}
				for _, r := range results {
					if r.Design.Artifact != nil {
						designs = append(designs, r.Design)
					}
				}
			}
		}
	}
	want := make([]string, len(designs))
	for i, d := range designs {
		a, err := tasks.Render(d)
		if err != nil {
			t.Fatalf("%s: %v", d.Label(), err)
		}
		if a.Source != d.Artifact.Source {
			t.Fatalf("%s: rendered again, the source differs from the flow's", d.Label())
		}
		want[i] = a.Source
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 2 * len(designs) {
				i := (g*len(designs)/goroutines + k) % len(designs)
				a, err := tasks.Render(designs[i])
				if err != nil {
					t.Errorf("%s: %v", designs[i].Label(), err)
					return
				}
				if a.Source != want[i] {
					t.Errorf("%s: rendered beside others, the source differs from the sequential render", designs[i].Label())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// matchFixture compares a designs table with the fixture line by line.
func matchFixture(t *testing.T, got string) {
	t.Helper()
	matchLines(t, designsFixture, got)
}

func checkLOC(t *testing.T, what, src string) {
	t.Helper()
	if got, want := minic.CountLOC(src), referenceLOC(src); got != want {
		t.Errorf("%s: CountLOC = %d, reference %d", what, got, want)
	}
}
