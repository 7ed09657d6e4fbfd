package minic

import "slices"

// Intrinsic is one MiniC builtin function: a libm form, its
// single-precision form, a GPU fast-math form, or an integer helper.
// Calls to intrinsics are resolved before user functions of the same name.
type Intrinsic struct {
	Name string
	// Family is the double-precision libm name of the intrinsic's family
	// (sqrt for sqrtf and the fast square root); cost models are keyed by
	// it.
	Family string
	Result BasicKind // Int, Float or Double
	Arity  int
	// Flops is what a call counts as: transcendentals are weighted by their
	// polynomial cost, so arithmetic intensity reflects real work.
	Flops int64
	// Heavy marks transcendentals that run as multi-pass SFU sequences on
	// consumer GPUs (range reduction + polynomial): exp, log, tanh, erf.
	Heavy bool
	// Fast marks a GPU fast-math form, installed by the Employ Specialised
	// Math Fns task: same semantics, cheaper, single precision.
	Fast bool
	// SP names the single-precision form of a double form; FastMath the
	// fast-math form of a single-precision form. Empty where there is none.
	SP, FastMath string
}

// Special reports whether the intrinsic is a special function
// (transcendental-weighted): what the analyses count as Special ops.
func (in Intrinsic) Special() bool { return in.Flops > 1 }

// libm declares each libm family once, by its double form. Its
// single-precision form is the name with an f suffix; fast names the
// fast-math form of that, if any.
var libm = []struct {
	name  string
	arity int
	flops int64
	heavy bool
	fast  string
}{
	{"sqrt", 1, 4, false, "__fsqrt_rn"},
	{"exp", 1, 8, true, "__expf"},
	{"log", 1, 8, true, "__logf"},
	{"pow", 2, 16, false, "__powf"},
	{"sin", 1, 8, false, "__sinf"},
	{"cos", 1, 8, false, "__cosf"},
	{"tanh", 1, 8, true, ""},
	{"erf", 1, 10, true, ""},
	{"fabs", 1, 1, false, ""},
	{"floor", 1, 1, false, ""},
	{"fmin", 2, 1, false, ""},
	{"fmax", 2, 1, false, ""},
}

// intrinsics is the catalog: the integer helpers, which count no FLOPs,
// then each libm family's forms. intrinsicIndex maps a name to its entry.
var intrinsics, intrinsicIndex = catalog()

func catalog() ([]Intrinsic, map[string]int) {
	all := []Intrinsic{
		{Name: "abs", Family: "abs", Result: Int, Arity: 1},
		{Name: "min", Family: "min", Result: Int, Arity: 2},
		{Name: "max", Family: "max", Result: Int, Arity: 2},
	}
	for _, f := range libm {
		dp := Intrinsic{Name: f.name, Family: f.name, Result: Double, Arity: f.arity, Flops: f.flops, Heavy: f.heavy, SP: f.name + "f"}
		sp := dp
		sp.Name, sp.Result, sp.SP, sp.FastMath = dp.SP, Float, "", f.fast
		all = append(all, dp, sp)
		if f.fast != "" {
			fast := sp
			fast.Name, fast.Fast, fast.FastMath = f.fast, true, ""
			all = append(all, fast)
		}
	}
	index := make(map[string]int, len(all))
	for i, in := range all {
		index[in.Name] = i
	}
	return all, index
}

// LookupIntrinsic returns the intrinsic called name. printf is not one: it
// is the output statement, and TypeOf gives its call type void.
func LookupIntrinsic(name string) (Intrinsic, bool) {
	i, ok := intrinsicIndex[name]
	if !ok {
		return Intrinsic{}, false
	}
	return intrinsics[i], true
}

// Intrinsics returns every intrinsic in catalog order.
func Intrinsics() []Intrinsic { return slices.Clone(intrinsics) }
