package interp

import "math"

// builtin describes a runtime math intrinsic: Go implementation, arity,
// virtual-clock cost, and how many FLOPs it counts as (transcendentals are
// weighted by their polynomial cost so arithmetic-intensity measurements
// reflect real work, matching how rooflines weight special functions).
type builtin struct {
	fn    func([]Value) Value
	arity int
	cost  float64
	flops int64
	// Scalar forms for the quickener (quicken.go): the underlying float
	// function without the []Value wrapper, nil for the int intrinsics.
	// rnd marks single-precision results (FloatVal rounding).
	s1  func(float64) float64
	s2  func(float64, float64) float64
	rnd bool
}

func d1(f func(float64) float64, cost float64, flops int64) builtin {
	return builtin{
		fn:    func(a []Value) Value { return DoubleVal(f(a[0].AsFloat())) },
		arity: 1, cost: cost, flops: flops, s1: f,
	}
}

func f1(f func(float64) float64, cost float64, flops int64) builtin {
	return builtin{
		fn:    func(a []Value) Value { return FloatVal(f(a[0].AsFloat())) },
		arity: 1, cost: cost, flops: flops, s1: f, rnd: true,
	}
}

func d2(f func(float64, float64) float64, cost float64, flops int64) builtin {
	return builtin{
		fn:    func(a []Value) Value { return DoubleVal(f(a[0].AsFloat(), a[1].AsFloat())) },
		arity: 2, cost: cost, flops: flops, s2: f,
	}
}

func f2(f func(float64, float64) float64, cost float64, flops int64) builtin {
	return builtin{
		fn:    func(a []Value) Value { return FloatVal(f(a[0].AsFloat(), a[1].AsFloat())) },
		arity: 2, cost: cost, flops: flops, s2: f, rnd: true,
	}
}

// builtins is the MiniC intrinsic table. The double/single pairs mirror
// libm (sqrt/sqrtf, ...); the double-underscore entries model the
// specialised GPU intrinsics installed by the "Employ Specialised Math
// Fns" transform — same semantics, cheaper cost, single precision.
var builtins = map[string]builtin{
	"sqrt":   d1(math.Sqrt, CostSqrt, 4),
	"sqrtf":  f1(math.Sqrt, CostSqrt, 4),
	"exp":    d1(math.Exp, CostExp, 8),
	"expf":   f1(math.Exp, CostExp, 8),
	"log":    d1(math.Log, CostLog, 8),
	"logf":   f1(math.Log, CostLog, 8),
	"pow":    d2(math.Pow, CostPow, 16),
	"powf":   f2(math.Pow, CostPow, 16),
	"sin":    d1(math.Sin, CostTrig, 8),
	"sinf":   f1(math.Sin, CostTrig, 8),
	"cos":    d1(math.Cos, CostTrig, 8),
	"cosf":   f1(math.Cos, CostTrig, 8),
	"tanh":   d1(math.Tanh, CostTrig, 8),
	"tanhf":  f1(math.Tanh, CostTrig, 8),
	"erf":    d1(math.Erf, CostErf, 10),
	"erff":   f1(math.Erf, CostErf, 10),
	"fabs":   d1(math.Abs, CostAbsMin, 1),
	"fabsf":  f1(math.Abs, CostAbsMin, 1),
	"floor":  d1(math.Floor, CostAbsMin, 1),
	"floorf": f1(math.Floor, CostAbsMin, 1),
	"fmin":   d2(math.Min, CostAbsMin, 1),
	"fminf":  f2(math.Min, CostAbsMin, 1),
	"fmax":   d2(math.Max, CostAbsMin, 1),
	"fmaxf":  f2(math.Max, CostAbsMin, 1),

	// Specialised (fast-math) GPU intrinsics.
	"__expf":     f1(math.Exp, CostFastFn, 8),
	"__logf":     f1(math.Log, CostFastFn, 8),
	"__powf":     f2(math.Pow, CostFastFn, 16),
	"__sinf":     f1(math.Sin, CostFastFn, 8),
	"__cosf":     f1(math.Cos, CostFastFn, 8),
	"__fsqrt_rn": f1(math.Sqrt, CostFastFn, 4),

	"abs": {
		fn: func(a []Value) Value {
			v := a[0].AsInt()
			if v < 0 {
				v = -v
			}
			return IntVal(v)
		},
		arity: 1, cost: CostAbsMin, flops: 0,
	},
	"min": {
		fn: func(a []Value) Value {
			x, y := a[0].AsInt(), a[1].AsInt()
			if y < x {
				x = y
			}
			return IntVal(x)
		},
		arity: 2, cost: CostAbsMin, flops: 0,
	},
	"max": {
		fn: func(a []Value) Value {
			x, y := a[0].AsInt(), a[1].AsInt()
			if y > x {
				x = y
			}
			return IntVal(x)
		},
		arity: 2, cost: CostAbsMin, flops: 0,
	},
}

// IsBuiltin reports whether name is a runtime intrinsic.
func IsBuiltin(name string) bool {
	if name == "printf" {
		return true
	}
	_, ok := builtins[name]
	return ok
}

// BuiltinFlops returns the FLOP weight charged per call of a builtin, or
// 0 for unknown names; used by static analyses to weight call expressions
// consistently with dynamic measurement.
func BuiltinFlops(name string) int64 {
	if b, ok := builtins[name]; ok {
		return b.flops
	}
	return 0
}
