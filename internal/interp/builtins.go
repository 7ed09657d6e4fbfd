package interp

import (
	"math"

	"psaflow/internal/minic"
)

// builtin describes a runtime math intrinsic: Go implementation, arity,
// virtual-clock cost, and how many FLOPs it counts as (transcendentals are
// weighted by their polynomial cost so arithmetic-intensity measurements
// reflect real work, matching how rooflines weight special functions).
type builtin struct {
	fn    func([]Value) Value
	arity int
	cost  float64
	flops int64
	// Scalar forms for the specialised opQMath arms (specialise.go): the
	// underlying float function without the []Value wrapper, nil for the
	// int intrinsics. rnd marks single-precision results (FloatVal
	// rounding).
	s1  func(float64) float64
	s2  func(float64, float64) float64
	rnd bool
}

// impl is a family's Go function and cycle cost: f1 or f2 for a libm
// family by arity, fn for an integer helper. minic's catalog says which
// forms of a family exist and what each returns.
type impl struct {
	f1   func(float64) float64
	f2   func(float64, float64) float64
	fn   func([]Value) Value
	cost float64
}

// impls is keyed by minic.Intrinsic.Family.
var impls = map[string]impl{
	"sqrt":  {f1: math.Sqrt, cost: CostSqrt},
	"exp":   {f1: math.Exp, cost: CostExp},
	"log":   {f1: math.Log, cost: CostLog},
	"pow":   {f2: math.Pow, cost: CostPow},
	"sin":   {f1: math.Sin, cost: CostTrig},
	"cos":   {f1: math.Cos, cost: CostTrig},
	"tanh":  {f1: math.Tanh, cost: CostTrig},
	"erf":   {f1: math.Erf, cost: CostErf},
	"fabs":  {f1: math.Abs, cost: CostAbsMin},
	"floor": {f1: math.Floor, cost: CostAbsMin},
	"fmin":  {f2: math.Min, cost: CostAbsMin},
	"fmax":  {f2: math.Max, cost: CostAbsMin},
	"abs":   {fn: func(a []Value) Value { return IntVal(max(a[0].AsInt(), -a[0].AsInt())) }, cost: CostAbsMin},
	"min":   {fn: func(a []Value) Value { return IntVal(min(a[0].AsInt(), a[1].AsInt())) }, cost: CostAbsMin},
	"max":   {fn: func(a []Value) Value { return IntVal(max(a[0].AsInt(), a[1].AsInt())) }, cost: CostAbsMin},
}

// builtins is the runtime table of every minic.Intrinsic.
var builtins = func() map[string]builtin {
	m := map[string]builtin{}
	for _, in := range minic.Intrinsics() {
		m[in.Name] = newBuiltin(in, impls[in.Family])
	}
	return m
}()

// newBuiltin is intrinsic in run by its family's impl: a single-precision
// form rounds its result, a fast-math form costs CostFastFn.
func newBuiltin(in minic.Intrinsic, im impl) builtin {
	b := builtin{fn: im.fn, arity: in.Arity, cost: im.cost, flops: in.Flops,
		s1: im.f1, s2: im.f2, rnd: in.Result == minic.Float}
	if in.Fast {
		b.cost = CostFastFn
	}
	f1, f2 := im.f1, im.f2
	switch {
	case f1 != nil && b.rnd:
		b.fn = func(a []Value) Value { return FloatVal(f1(a[0].AsFloat())) }
	case f1 != nil:
		b.fn = func(a []Value) Value { return DoubleVal(f1(a[0].AsFloat())) }
	case f2 != nil && b.rnd:
		b.fn = func(a []Value) Value { return FloatVal(f2(a[0].AsFloat(), a[1].AsFloat())) }
	case f2 != nil:
		b.fn = func(a []Value) Value { return DoubleVal(f2(a[0].AsFloat(), a[1].AsFloat())) }
	}
	return b
}
