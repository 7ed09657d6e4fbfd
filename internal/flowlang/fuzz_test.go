package flowlang_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"psaflow/internal/core"
	"psaflow/internal/flowlang"
	"psaflow/internal/tasks"
)

// FuzzFlowParse feeds arbitrary byte strings to the flow front end
// (seeded with the bundled example flows and the lexical fixture's inputs,
// like minic's FuzzParse). Parse must either return a file or an error — never panic,
// never overflow the stack — regardless of input: the psaflowd flow
// registry hands it untrusted documents straight off the wire. Whenever
// Lex fails, Parse fails with the same LexError.
func FuzzFlowParse(f *testing.F) {
	for _, name := range []string{"paper.psa", "minimal.psa", "faults.psa"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "flows", name))
		if err != nil {
			f.Fatalf("read example %s: %v", name, err)
		}
		f.Add(string(src))
	}
	f.Add("")
	f.Add(`flow "d" { task identify-hotspots }`)
	f.Add(`flow "d" { budget 1.5 retry attempts=3 budget=8 task render-design }`)
	f.Add(`def "a" { use "a" } flow "d" { use "a" }`)
	f.Add(`flow "d" { branch "A" strategy informed(ai-threshold=6, transfer-bw=12e9) gated { path "cpu" { task omp-parallel-loops } } }`)
	f.Add(`flow "d" { branch "B" strategy all { foreach dev in gpus { when dev.usm { task zero-copy(dev) } } } }`)
	f.Add(`flow "未完 { task`)
	f.Add("flow \"d\" {\n  # comment\n  // comment\n}")
	f.Add(`flow "\x"`)
	f.Add(unmetKernelDoc)
	f.Add(unmetTargetDoc)
	f.Add(unmetDepsDoc)
	f.Add(unmetWhenDoc)
	f.Add(unmetArmDoc)
	f.Add(noDeviceDoc)
	f.Add(targetTwiceDoc)
	for _, c := range lexInputs {
		f.Add(c[1])
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := flowlang.Parse(src)
		if err == nil && file == nil {
			t.Fatal("Parse returned nil file and nil error")
		}
		// The parser pulls its tokens as it goes, but a lexical error
		// anywhere wins as if the text were lexed first.
		if _, lexErr := flowlang.Lex(src); lexErr != nil {
			var want, got *flowlang.LexError
			errors.As(lexErr, &want)
			if !errors.As(err, &got) || *got != *want {
				t.Fatalf("Lex fails with %v, Parse with %v", lexErr, err)
			}
		}
		// Anything that parses must also survive validation (collecting
		// diagnostics, not panicking), and lowering is total on what Check
		// admits: an accepted document lowers under every mode × sharing
		// combination a job can ask for, into a flow in which no task and
		// no selector can lack a fact it needs, and no task can choose a
		// target or a device twice.
		doc, err := flowlang.Check(src)
		if err != nil {
			return
		}
		for _, mode := range []tasks.Mode{tasks.Informed, tasks.Uninformed} {
			for _, sharing := range []bool{false, true} {
				flow := doc.Compile(flowlang.Options{Mode: mode, ResourceSharing: sharing}).Flow
				var bad []string
				needsMet(flow, 0, 0, &bad)
				if len(bad) > 0 {
					t.Fatalf("Check accepted a flow that fails in mode %v, sharing %t: %v", mode, sharing, bad)
				}
			}
		}
	})
}

// needsMet runs the facts of a design entering f through the lowered graph
// the way the engine does: steps in order, and every path of a branch from
// the facts before it. The design holds every fact of all, and may hold
// those of some. A branch may hand on the design that entered it (a
// strategy that terminates, a gated branch out of revisions), so after it
// the design holds what it held before it, and may hold what any path
// gave. The Fig. 3 selector reads the dependence analysis. Each need not
// held, and each choice the design may already hold, is appended to bad;
// needsMet returns the facts the design may hold after f.
func needsMet(f *core.Flow, all, some core.Fact, bad *[]string) core.Fact {
	for _, n := range f.Nodes {
		switch n := n.(type) {
		case core.Step:
			t := n.Task.(core.TaskFunc)
			if miss := t.Need &^ all; miss != 0 {
				*bad = append(*bad, fmt.Sprintf("%s/%s needs %v", f.Name, t.TaskName, miss))
			}
			if again := t.Give & some & core.Choices; again != 0 {
				*bad = append(*bad, fmt.Sprintf("%s/%s gives %v again", f.Name, t.TaskName, again))
			}
			all |= t.Give
			some |= t.Give
		case core.Branch:
			if n.Select.Name() == "informed-fig3" && all&core.FactDeps == 0 {
				*bad = append(*bad, fmt.Sprintf("%s/branch %s needs deps", f.Name, n.PointName))
			}
			after := some
			for _, p := range n.Paths {
				after |= needsMet(p.Flow, all, some, bad)
			}
			some = after
		}
	}
	return some
}
