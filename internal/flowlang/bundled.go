package flowlang

import (
	"sync"

	"psaflow/examples/flows"
	"psaflow/internal/core"
)

// bundled is examples/flows/paper.psa, checked once per process. The file
// is only ever read, so every job lowers the same one.
var bundled = sync.OnceValue(func() *File {
	f, err := Check(flows.Paper)
	if err != nil {
		panic("flowlang: bundled paper.psa: " + err.Error())
	}
	return f
})

// Bundled is the parsed built-in PSA-flow of paper Fig. 4, for surfaces
// that lower it with Compile alongside documents of their own.
func Bundled() *File { return bundled() }

// PSAFlow is the built-in PSA-flow of paper Fig. 4 lowered with opts:
// target-independent tasks, branch point A (target class), then the target
// sub-flows with device branch points B (GPUs) and C (FPGAs).
func PSAFlow(opts Options) *core.Flow {
	c, err := Compile(bundled(), opts)
	if err != nil {
		panic("flowlang: bundled paper.psa: " + err.Error())
	}
	return c.Flow
}
