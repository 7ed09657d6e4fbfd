package interp

import "psaflow/internal/minic"

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
