package interp

import (
	"fmt"
	"strings"

	"psaflow/internal/minic"
)

// Generic returns cfg with lowering-time specialisation off: every
// instruction keeps its generic opcode, so its generic arm is what runs.
func Generic(cfg Config) Config {
	cfg.generic = true
	return cfg
}

// Specialised counts, per function, the instructions of prog's lowering
// that carry a specialised opcode.
func Specialised(prog *minic.Program) map[string]int {
	out := map[string]int{}
	for name, bf := range compileBytecode(prog, false).funcs {
		for i := range bf.code {
			if bf.code[i].op >= opQFirst {
				out[name]++
			}
		}
	}
	return out
}

// Lower lowers prog as a run without a program cache does, and drops the
// image.
func Lower(prog *minic.Program) { compileBytecode(prog, false) }

// DropScratch empties lowerScratch, so the next lowering grows its scratch
// from nothing.
func DropScratch() {
	lowerScratch.mu.Lock()
	defer lowerScratch.mu.Unlock()
	clear(lowerScratch.idle)
	lowerScratch.idle = lowerScratch.idle[:0]
}

// LoweredImage lowers prog and renders the image for comparison: each
// function's prefix tree, and every field of every instruction, with what
// a pointer points to in place of its address.
func LoweredImage(prog *minic.Program) string {
	bp := compileBytecode(prog, false)
	var sb strings.Builder
	for _, f := range prog.Funcs {
		bf := bp.funcs[f.Name]
		if bf.decl != f {
			continue
		}
		fmt.Fprintf(&sb, "func %s nregs %d cands %d\n", f.Name, bf.nregs, len(bf.cands))
		fmt.Fprintf(&sb, "\tprefs %v\n", bf.prefs)
		for _, cand := range bf.cands {
			fmt.Fprintf(&sb, "\tcand %v\n", cand.regs)
			for _, p := range cand.params {
				fmt.Fprintf(&sb, "\t\tparam %s %s\n", p.Name, p.Type)
			}
		}
		for i := range bf.code {
			in := bf.code[i]
			tgts := []*btarget{in.tgt, in.a.tgt, in.b.tgt}
			q, fn := in.q, in.fn
			in.tgt, in.a.tgt, in.b.tgt, in.q, in.fn = nil, nil, nil, nil, nil
			in.bi = builtin{}
			fmt.Fprintf(&sb, "\t%d %+v\n", i, in)
			for _, tgt := range tgts {
				if tgt != nil {
					fmt.Fprintf(&sb, "\t\ttgt %+v\n", *tgt)
				}
			}
			if q != nil {
				fmt.Fprintf(&sb, "\t\tq %+v\n", *q)
			}
			if fn != nil {
				fmt.Fprintf(&sb, "\t\tfn %s\n", fn.decl.Name)
			}
		}
	}
	return sb.String()
}
