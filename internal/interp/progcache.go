package interp

import (
	"sync"

	"psaflow/internal/minic"
)

// ProgramCache shares lowered bytecode programs across Runs, keyed by
// minic.Fingerprint. It serves a caller that executes one program more
// than once — a flow without a profiled-run cache, whose dynamic analyses
// each re-run the unchanged program, or a harness timing repeat runs —
// so the repeats skip lowering and start from quickened opcodes. Where
// results are memoized by fingerprint (core.RunCache) a program never
// runs twice, a pooled image could never be leased again, and the flow
// passes no cache: pooling there only pins the image, about 160 KB a
// program, and through it the AST it was lowered from.
//
// Each fingerprint owns a pool of lowered programs handed out under an
// exclusive lease — exclusivity is what makes in-place quickening safe:
// a leased program's instruction words are written only by the single
// run holding the lease, and a released program keeps its quickened
// instructions (and hot counters) for the next lease. Concurrent runs of
// the same fingerprint each get their own copy; sequential runs — the
// batched-execution case — share one progressively-quickened program.
type ProgramCache struct {
	mu      sync.Mutex
	entries map[uint64]*progEntry
}

type progEntry struct {
	free []*bprog // released lowered programs, ready to lease
	// loops is the shared read-only loop-metadata map (built once per
	// fingerprint; machines only read it).
	loops map[int]loopInfo
	// failed latches a lowering panic: later leases skip straight to the
	// caller's defensive tree-walk fallback instead of re-panicking.
	failed bool
}

// progLease is one exclusive claim on a lowered program. bp is nil when
// lowering failed (the caller falls back to the tree-walker).
type progLease struct {
	ent     *progEntry
	bp      *bprog
	loops   map[int]loopInfo
	lowered bool // this lease performed a lowering (cache miss or extra copy)
}

// NewProgramCache returns an empty cache, safe for concurrent use.
func NewProgramCache() *ProgramCache {
	return &ProgramCache{entries: make(map[uint64]*progEntry)}
}

// lease returns an exclusively-held lowered program for prog, lowering
// one if no released copy is available. fp must be prog's fingerprint —
// the cache trusts the caller's keying exactly as core.RunCache does.
func (c *ProgramCache) lease(fp uint64, prog *minic.Program) *progLease {
	c.mu.Lock()
	ent := c.entries[fp]
	if ent == nil {
		ent = &progEntry{}
		c.entries[fp] = ent
	}
	l := &progLease{ent: ent}
	if n := len(ent.free); n > 0 {
		l.bp = ent.free[n-1]
		ent.free[n-1] = nil
		ent.free = ent.free[:n-1]
		l.loops = ent.loops
		c.mu.Unlock()
		return l
	}
	if ent.failed {
		c.mu.Unlock()
		return l // bp nil: remembered lowering failure
	}
	c.mu.Unlock()

	// Lowering runs outside the lock: it can be slow, and concurrent
	// leases of other fingerprints (or extra copies of this one) must
	// not serialize behind it.
	bp := lowerBytecode(prog)

	c.mu.Lock()
	defer c.mu.Unlock()
	if bp == nil {
		ent.failed = true
		return l
	}
	if ent.loops == nil {
		ent.loops = buildLoopInfo(prog)
	}
	l.bp = bp
	l.loops = ent.loops
	l.lowered = true
	return l
}

// release returns a leased program to its fingerprint's pool.
func (c *ProgramCache) release(l *progLease) {
	if l.bp == nil {
		return
	}
	c.mu.Lock()
	l.ent.free = append(l.ent.free, l.bp)
	l.bp = nil
	c.mu.Unlock()
}

// Len returns the number of distinct fingerprints cached.
func (c *ProgramCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
