//go:build !race

// The race detector instruments allocation, so the heap readings below
// hold only without it: tier-1 (go test ./...) runs them, go test -race
// skips them.

package service

import (
	"runtime"
	"strings"
	"testing"

	"psaflow/internal/minic"
)

// keptASTBytesPerSourceByte bounds the live heap a kept program's AST
// holds per byte of its source: the program table's worst case,
// keptPrograms sources of keptSourceMax bytes each, rests on it
// (docs/OPERATIONS.md).
const keptASTBytesPerSourceByte = 57

// TestKeptProgramWorstCase parses sources of keptSourceMax bytes, each one
// dense statement shape repeated, and bounds the live heap each AST holds
// per source byte. The smallest statements and expressions make the most
// nodes per byte; the empty statements and empty for inits make none, and
// must not leave counted slab slots behind for the AST to keep alive.
// Each shape is read three times and the largest reading counts, since a
// collection during a reading can only lower it.
func TestKeptProgramWorstCase(t *testing.T) {
	const head = "int g(int a, int b, int c) { return a; }\nvoid f(int x, int *a) {\n"
	shapes := []string{"x=x;", "x=-x;", "x=x+x*x-x;", "x=a[x];", "g(x,x,x);", "{}", "if(x)x=x;", "x++;", "x=x;;;;", "for(;;)x=x;"}
	for _, shape := range shapes {
		src := head + strings.Repeat(shape, (keptSourceMax-len(head)-2)/len(shape)) + "}\n"
		perByte := 0.0
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			prog, err := minic.Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", shape, err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(prog)
			perByte = max(perByte, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(len(src)))
		}
		t.Logf("%-12s %5d bytes of source, %.1f bytes of AST a byte", shape, len(src), perByte)
		if perByte > keptASTBytesPerSourceByte {
			t.Errorf("%s: the AST holds %.1f bytes per source byte, want at most %d", shape, perByte, keptASTBytesPerSourceByte)
		}
	}
}
