package interp

import (
	"sync"

	"psaflow/internal/minic"
)

// ProgramCache shares lowered bytecode programs across Runs, keyed by
// minic.Fingerprint. It serves a caller that executes one program more
// than once — a flow without a profiled-run cache, whose dynamic analyses
// each re-run the unchanged program, or a harness timing repeat runs —
// so the repeats skip lowering. Where results are memoized by fingerprint
// (core.RunCache) a program never runs twice, a cached image could never
// serve again, and the flow passes no cache: caching there only pins the
// image, and through it the AST it was lowered from.
//
// Each fingerprint owns one image. A lowered image is immutable —
// specialisation happens at lowering, and no run writes an instruction —
// so every run of the fingerprint, concurrent ones included, executes
// that one image.
type ProgramCache struct {
	mu      sync.Mutex
	entries map[uint64]*progEntry
}

type progEntry struct {
	once sync.Once
	bp   *bprog // nil when lowering panicked: runs fall back to the tree-walker
	// loops is the read-only loop-metadata map of the program.
	loops map[int]loopInfo
}

// NewProgramCache returns an empty cache, safe for concurrent use.
func NewProgramCache() *ProgramCache {
	return &ProgramCache{entries: make(map[uint64]*progEntry)}
}

// image returns the lowered image of prog and its loop metadata, lowering
// it on the fingerprint's first use; lowered reports that this call did.
// Concurrent first uses wait for the one lowering, outside the cache's
// lock. fp must be prog's fingerprint — the cache trusts the caller's
// keying exactly as core.RunCache does.
func (c *ProgramCache) image(fp uint64, prog *minic.Program) (bp *bprog, loops map[int]loopInfo, lowered bool) {
	c.mu.Lock()
	e := c.entries[fp]
	if e == nil {
		e = &progEntry{}
		c.entries[fp] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		lowered = true
		if e.bp = lowerBytecode(prog, false); e.bp != nil {
			e.loops = buildLoopInfo(prog)
		}
	})
	return e.bp, e.loops, lowered
}

// Len returns the number of distinct fingerprints cached.
func (c *ProgramCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
