package service

import (
	"hash/maphash"
	"sync"

	"psaflow/internal/core"
	"psaflow/internal/minic"
)

// The program table. A daemon serves the same few programs over and over —
// a client resubmits one source with each mode, flow and tenant — so a
// source it has checked before is kept: parsed, with its fingerprint and
// its reference line count, and every later submission of the same text
// takes it without parsing. A kept program is shared by every job that
// holds it, so such a job's flow starts shared (core.SharedDesign) and
// copies what it writes; the kept AST is never written.
//
// A source is kept on its second sighting, not its first: the shared
// start's copies cost a job a little, so a program sent once would pay
// them and gain nothing. First sightings are remembered as hashes in a
// fixed-size set, and the kept programs sit under a fixed LRU cap. A
// source that fails to parse is never kept, and neither is one longer
// than keptSourceMax, so what the table retains is bounded whatever is
// submitted (docs/OPERATIONS.md).

const (
	// keptPrograms caps the kept programs; beyond it the least recently
	// used goes.
	keptPrograms = 32
	// keptSourceMax is the longest source the table keeps, in bytes: five
	// times the longest application's. An AST takes at most about 57 bytes
	// per source byte, so the table holds at most about 30 MB
	// (docs/OPERATIONS.md).
	keptSourceMax = 16 << 10
	// sightingSlots sizes the set of first-sighting hashes. It is two-way
	// set-associative: a hash goes to the bucket of two slots it maps to
	// and pushes out that bucket's older hash, and a source whose hash was
	// pushed out is seen for the first time again. Two ways, because with
	// one, two sources whose hashes share a slot and arrive in turn
	// overwrite each other forever, and neither is ever kept.
	sightingSlots = 1024
)

// program is a job's checked MiniC program. A kept one is the program
// table's: every job that submitted its text holds the same one, and no
// flow may write it. Any other is the job's own, its fingerprint 0 until
// asked.
type program struct {
	ast    *minic.Program
	fp     uint64
	refLOC int
	kept   bool
}

// fingerprint is p's minic.Fingerprint, taken now if p does not hold it.
func (p *program) fingerprint() uint64 {
	if p.fp == 0 {
		p.fp = minic.Fingerprint(p.ast)
	}
	return p.fp
}

// design is the flow input of a job on p. A kept program is every job's
// that submitted its text, so the flow starts shared and copies what it
// writes; a job's own program is written in place, as a CLI run writes its
// parse.
func (p program) design(name string) *core.Design {
	if p.kept {
		return core.SharedDesign(name, p.ast, p.refLOC)
	}
	return core.NewDesign(name, p.ast)
}

// programTable is one daemon's kept programs, keyed by their exact source
// text, and the hashes of the sources it has seen once.
type programTable struct {
	seed maphash.Seed

	mu    sync.Mutex
	seen  [sightingSlots / 2][2]uint64 // newest first; 0 marks an empty slot
	kept  map[string]*keptProgram
	clock uint64 // counts lookups that found or kept a program
}

type keptProgram struct {
	program
	used uint64 // the clock at its last lookup
}

func newProgramTable() *programTable {
	return &programTable{seed: maphash.MakeSeed(), kept: make(map[string]*keptProgram)}
}

// lookup returns src's checked program: the kept one, or a fresh parse,
// kept if src was seen before. A parse error is returned and never kept.
func (t *programTable) lookup(src string) (program, error) {
	t.mu.Lock()
	if k, ok := t.kept[src]; ok {
		t.clock++
		k.used = t.clock
		t.mu.Unlock()
		return k.program, nil
	}
	t.mu.Unlock()
	ast, err := minic.Parse(src)
	if err != nil {
		return program{}, err
	}
	if len(src) > keptSourceMax || !t.sighted(maphash.String(t.seed, src)|1) {
		return program{ast: ast}, nil
	}
	return t.keep(src, program{ast: ast, fp: minic.Fingerprint(ast), refLOC: minic.ProgramLOC(ast), kept: true}), nil
}

// sighted records h as seen and reports whether it was already.
func (t *programTable) sighted(h uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.seen[(h>>1)%(sightingSlots/2)] // the low bit is always set
	if b[0] == h || b[1] == h {
		return true
	}
	b[0], b[1] = h, b[0]
	return false
}

// keep installs p as src's kept program, evicting the least recently used
// at the cap, and returns the kept program: p, or the one a concurrent
// lookup of the same text kept first.
func (t *programTable) keep(src string, p program) program {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock++
	if k, ok := t.kept[src]; ok {
		k.used = t.clock
		return k.program
	}
	if len(t.kept) >= keptPrograms {
		var lru string
		oldest := t.clock
		for s, k := range t.kept {
			if k.used < oldest {
				lru, oldest = s, k.used
			}
		}
		delete(t.kept, lru)
	}
	t.kept[src] = &keptProgram{program: p, used: t.clock}
	return p
}
