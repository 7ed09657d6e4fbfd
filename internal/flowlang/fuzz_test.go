package flowlang_test

import (
	"os"
	"path/filepath"
	"testing"

	"psaflow/internal/flowlang"
)

// FuzzFlowParse feeds arbitrary byte strings to the flow front end
// (seeded with the bundled example flows, like minic's bench-seeded
// FuzzParse). Parse must either return a file or an error — never panic,
// never overflow the stack — regardless of input: the psaflowd flow
// registry hands it untrusted documents straight off the wire.
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
	f.Fuzz(func(t *testing.T, src string) {
		file, err := flowlang.Parse(src)
		if err == nil && file == nil {
			t.Fatal("Parse returned nil file and nil error")
		}
		if err != nil {
			return
		}
		// Anything that parses must also survive validation (collecting
		// diagnostics, not panicking), and anything that validates must
		// compile under every mode × sharing combination, which is what
		// Check asks.
		if verr := flowlang.Validate(file); verr == nil {
			if _, cerr := flowlang.Check(src); cerr != nil {
				t.Fatalf("validated flow failed to compile: %v", cerr)
			}
		}
	})
}
