package interp

import (
	"testing"
	"unsafe"
)

// TestInstructionSizes pins the size of the lowered instruction and of its
// index target. The dispatch loop walks the instruction slice, so a field
// added to binstr costs every dispatch its share of a cache line; a mark
// an instruction needs goes in what it already holds (a step charged
// elsewhere is its left operand's mode: ownStep).
func TestInstructionSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the sizes are pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(binstr{}); n != 360 {
		t.Errorf("binstr is %d bytes, want 360", n)
	}
	if n := unsafe.Sizeof(btarget{}); n != 440 {
		t.Errorf("btarget is %d bytes, want 440", n)
	}
}
