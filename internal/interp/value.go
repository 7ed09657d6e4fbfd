// Package interp is a tree-walking interpreter for MiniC with a
// deterministic virtual clock and always-on profiling. It stands in for
// native execution in the paper's dynamic analyses: hotspot detection
// (per-loop timers), loop trip counts, data-movement measurement, and
// pointer alias observation — and it verifies functional equivalence of
// transformed designs against their references.
package interp

import (
	"fmt"
	"math"

	"psaflow/internal/minic"
)

// ValKind enumerates runtime value kinds.
type ValKind int

// Runtime value kinds. KFloat models C float (results are rounded through
// float32 so single-precision transforms have observable numerics);
// KDouble models C double.
const (
	KVoid ValKind = iota
	KBool
	KInt
	KFloat
	KDouble
	KBuf
)

// String names the kind.
func (k ValKind) String() string {
	switch k {
	case KVoid:
		return "void"
	case KBool:
		return "bool"
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KDouble:
		return "double"
	case KBuf:
		return "buffer"
	}
	return fmt.Sprintf("ValKind(%d)", int(k))
}

// Value is a runtime value.
type Value struct {
	K   ValKind
	I   int64
	F   float64
	B   bool
	Buf *Buffer
}

// Buffer is a runtime array. Element kind is Int (data in I) or
// Float/Double (data in F). Buffers model the memory a pointer parameter
// points at; alias observation compares Buffer identity.
type Buffer struct {
	Name string
	Kind minic.BasicKind
	F    []float64
	I    []int64

	// traf caches this buffer's traffic accumulator for the watch epoch
	// it was last resolved in (see machine.trafficOf). Epochs are
	// globally unique, so stale entries from earlier runs never collide.
	traf      *Traffic
	trafEpoch uint64
	// shape is this buffer's index in shapeIn.bufs, set when an
	// activation of the watch target that shapeIn records first binds it
	// (see watchRec.internShape). Like traf it assumes what
	// Context.Parallel requires: no two concurrent runs share a buffer.
	shape   int
	shapeIn *watchRec
}

// NewFloatBuffer allocates a float/double buffer with the given contents.
func NewFloatBuffer(name string, kind minic.BasicKind, data []float64) *Buffer {
	return &Buffer{Name: name, Kind: kind, F: data}
}

// NewIntBuffer allocates an int buffer with the given contents.
func NewIntBuffer(name string, data []int64) *Buffer {
	return &Buffer{Name: name, Kind: minic.Int, I: data}
}

// Len returns the element count.
func (b *Buffer) Len() int {
	if b.Kind == minic.Int {
		return len(b.I)
	}
	return len(b.F)
}

// ElemBytes returns the byte size of one element.
func (b *Buffer) ElemBytes() int64 { return b.Kind.Size() }

// Clone deep-copies the buffer (used to re-run designs from the same
// initial state).
func (b *Buffer) Clone() *Buffer {
	nb := &Buffer{Name: b.Name, Kind: b.Kind}
	if b.F != nil {
		nb.F = append([]float64(nil), b.F...)
	}
	if b.I != nil {
		nb.I = append([]int64(nil), b.I...)
	}
	return nb
}

// IntVal constructs an int value.
func IntVal(v int64) Value { return Value{K: KInt, I: v} }

// DoubleVal constructs a double value.
func DoubleVal(v float64) Value { return Value{K: KDouble, F: v} }

// FloatVal constructs a single-precision value (rounded through float32).
func FloatVal(v float64) Value { return Value{K: KFloat, F: float64(float32(v))} }

// BoolVal constructs a bool value.
func BoolVal(v bool) Value { return Value{K: KBool, B: v} }

// BufVal constructs a buffer (pointer) value.
func BufVal(b *Buffer) Value { return Value{K: KBuf, Buf: b} }

// AsFloat converts a numeric value to float64.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KInt:
		return float64(v.I)
	case KBool:
		if v.B {
			return 1
		}
		return 0
	default:
		return v.F
	}
}

// AsInt converts a numeric value to int64 (floats truncate toward zero).
func (v Value) AsInt() int64 {
	switch v.K {
	case KInt:
		return v.I
	case KBool:
		if v.B {
			return 1
		}
		return 0
	default:
		return int64(math.Trunc(v.F))
	}
}

// AsBool converts a value to a truth value (non-zero is true).
func (v Value) AsBool() bool {
	switch v.K {
	case KBool:
		return v.B
	case KInt:
		return v.I != 0
	default:
		return v.F != 0
	}
}

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool {
	switch v.K {
	case KInt, KFloat, KDouble, KBool:
		return true
	}
	return false
}

// String renders the value for diagnostics and captured output.
func (v Value) String() string {
	switch v.K {
	case KVoid:
		return "void"
	case KBool:
		return fmt.Sprintf("%t", v.B)
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KFloat, KDouble:
		return fmt.Sprintf("%g", v.F)
	case KBuf:
		return fmt.Sprintf("buffer(%s,%d)", v.Buf.Name, v.Buf.Len())
	}
	return "?"
}
