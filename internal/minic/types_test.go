package minic_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"psaflow/internal/minic"
)

// declScope types the names fn declares anywhere: its parameters and its
// declarations, arrays as pointers to their element kind. It resolves no
// function. It is a map, so passing it as a minic.Scope allocates nothing.
type declScope map[string]minic.Type

func (s declScope) VarType(name string) (minic.Type, bool) {
	t, ok := s[name]
	return t, ok
}

func (declScope) Func(string) *minic.FuncDecl { return nil }

// progScope is a declScope that resolves the functions of prog.
type progScope struct {
	declScope
	prog *minic.Program
}

func (s progScope) Func(name string) *minic.FuncDecl { return s.prog.Func(name) }

func scopeOf(fn *minic.FuncDecl) declScope {
	s := declScope{}
	for _, p := range fn.Params {
		s[p.Name] = p.Type
	}
	minic.Walk(fn, func(n minic.Node) bool {
		if d, ok := n.(*minic.DeclStmt); ok {
			t := d.Type
			if d.ArrayLen != nil {
				t.Ptr = true
			}
			s[d.Name] = t
		}
		return true
	})
	return s
}

// TestTypeOf covers each rule of minic.TypeOf, and each expression it
// leaves untyped. The expressions are parsed unchecked: most of the
// untyped ones are what minic.Check rejects.
func TestTypeOf(t *testing.T) {
	vars := declScope{
		"n": {Kind: minic.Int}, "c": {Kind: minic.Int, Const: true},
		"d": {Kind: minic.Double}, "f": {Kind: minic.Float}, "b": {Kind: minic.Bool},
		"p": {Kind: minic.Int, Ptr: true}, "pf": {Kind: minic.Float, Ptr: true},
		"pd": {Kind: minic.Double, Ptr: true}, "pb": {Kind: minic.Bool, Ptr: true},
	}
	i, fl, db, bl := minic.Type{Kind: minic.Int}, minic.Type{Kind: minic.Float}, minic.Type{Kind: minic.Double}, minic.Type{Kind: minic.Bool}
	unknown := minic.Type{Kind: -1} // want ok == false
	cases := []struct {
		expr string
		want minic.Type
	}{
		// Literals and names.
		{"1", i}, {"1.5", db}, {"1.5f", fl}, {"true", bl},
		{"n", i}, {"c", minic.Type{Kind: minic.Int, Const: true}}, {"p", minic.Type{Kind: minic.Int, Ptr: true}},
		// Promotion: double > float > int, bool as int.
		{"n + 1", i}, {"n + f", fl}, {"f * d", db}, {"n / 2", i},
		{"b + 1", i}, {"b + b", i}, {"b * 1.5f", fl},
		// Comparisons and logic are bool; % is int.
		{"n < d", bl}, {"d == d", bl}, {"n && d", bl}, {"!d", bl},
		{"n % 3", i}, {"d % d", i},
		// Unary minus keeps int and float, anything else is double.
		{"-n", i}, {"-c", i}, {"-f", fl}, {"-d", db}, {"-b", db}, {"-p", db},
		// A variable keeps its declared type; an element store yields the
		// stored value, promoted with the old element when compound.
		{"n = d", i}, {"n += d", i}, {"f = n", fl},
		{"p[1] = d", db}, {"p[1] = n", i}, {"p[1] += d", db}, {"pf[0] += n", fl},
		{"n++", i}, {"pd[0]--", db},
		// Elements: int and float arrays keep their kind, others are double.
		{"p[0]", i}, {"pf[n]", fl}, {"pd[0]", db}, {"pb[0]", db},
		// Casts and intrinsic results.
		{"(float)n", fl}, {"(double)n * d", db}, {"(int)d + n", i},
		{"sqrt(n)", db}, {"sqrtf(d)", fl}, {"__expf(d)", fl}, {"abs(d)", i}, {"min(d, 2)", i},
		{`printf("%d", n)`, minic.Type{Kind: minic.Void}},
		// A user call has its function's declared return type.
		{"g(n)", i}, {"g(n) + d", db}, {"-g(n)", i}, {"pd[0] = g(n)", i},
		{"h()", minic.Type{Kind: minic.Void}},
		// Untyped: an undefined name or function, arithmetic on a pointer
		// or void, or on any of those, and indexing a non-pointer.
		{"u", unknown}, {"u + 1", unknown}, {"u[0]", unknown}, {"k(n)", unknown},
		{"p + 1", unknown}, {`printf("x") * 2`, unknown}, {"h() - 1", unknown},
		{"n[0]", unknown}, {"-k(n)", unknown},
	}
	for _, c := range cases {
		prog, err := minic.ParseUnchecked("int g(int n) { return n; } void h() { } void t() { " + c.expr + "; }")
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		e := prog.MustFunc("t").Body.Stmts[0].(*minic.ExprStmt).X
		got, ok := minic.TypeOf(e, progScope{vars, prog})
		switch {
		case c.want == unknown && ok:
			t.Errorf("TypeOf(%s) = %v, want unknown", c.expr, got)
		case c.want != unknown && (!ok || got != c.want):
			t.Errorf("TypeOf(%s) = %v, %t; want %v", c.expr, got, ok, c.want)
		}
	}
}

// TestIntrinsicCatalog: every double form's single-precision form exists as
// a Float of the same family, arity and FLOPs, and every fast-math form
// exists as a Fast Float of the family.
func TestIntrinsicCatalog(t *testing.T) {
	all := minic.Intrinsics()
	if len(all) != 33 {
		t.Errorf("%d intrinsics, want 33", len(all))
	}
	for _, in := range all {
		if got, ok := minic.LookupIntrinsic(in.Name); !ok || got != in {
			t.Errorf("LookupIntrinsic(%s) = %+v, %t", in.Name, got, ok)
		}
		if in.SP != "" {
			sp, ok := minic.LookupIntrinsic(in.SP)
			if in.Result != minic.Double || !ok || sp.Result != minic.Float || sp.Family != in.Family ||
				sp.Arity != in.Arity || sp.Flops != in.Flops || sp.Heavy != in.Heavy {
				t.Errorf("%s's single-precision form %s: %+v, %t", in.Name, in.SP, sp, ok)
			}
		}
		if in.FastMath != "" {
			fast, ok := minic.LookupIntrinsic(in.FastMath)
			if in.Result != minic.Float || !ok || !fast.Fast || fast.Result != minic.Float ||
				fast.Family != in.Family || fast.Arity != in.Arity || fast.Flops != in.Flops {
				t.Errorf("%s's fast-math form %s: %+v, %t", in.Name, in.FastMath, fast, ok)
			}
		}
		if in.Result == minic.Double && in.SP == "" {
			t.Errorf("double form %s has no single-precision form", in.Name)
		}
	}
}

// TestBuiltinIntrospection: builtins are known by name, with their FLOP
// weights; printf and user functions are not intrinsics.
func TestBuiltinIntrospection(t *testing.T) {
	for _, name := range []string{"sqrt", "__expf"} {
		if _, ok := minic.LookupIntrinsic(name); !ok {
			t.Errorf("%s not recognized", name)
		}
	}
	for _, name := range []string{"printf", "my_kernel", "__sin"} {
		if _, ok := minic.LookupIntrinsic(name); ok {
			t.Errorf("%s recognized as an intrinsic", name)
		}
	}
	exp, _ := minic.LookupIntrinsic("exp")
	sqrt, _ := minic.LookupIntrinsic("sqrt")
	if exp.Flops != 8 || sqrt.Flops != 4 {
		t.Error("flop weights wrong")
	}
}

// TestBuiltinsDocumented: docs/MINIC.md's "Builtins" section names every
// intrinsic, and every name it backquotes is an intrinsic or printf.
func TestBuiltinsDocumented(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "MINIC.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Builtins\n")
	if !ok {
		t.Fatal(`docs/MINIC.md has no "## Builtins" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, m := range regexp.MustCompile("`([A-Za-z_][A-Za-z_0-9]*)`").FindAllStringSubmatch(section, -1) {
		documented = append(documented, m[1])
		if _, ok := minic.LookupIntrinsic(m[1]); !ok && m[1] != "printf" {
			t.Errorf("docs/MINIC.md Builtins names %q, which is no intrinsic", m[1])
		}
	}
	for _, in := range minic.Intrinsics() {
		if !slices.Contains(documented, in.Name) {
			t.Errorf("docs/MINIC.md Builtins does not name %q", in.Name)
		}
	}
}
