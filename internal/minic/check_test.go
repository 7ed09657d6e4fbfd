package minic_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"psaflow/internal/interp"
	"psaflow/internal/minic"
)

// TestCheckRejects: each row is a program whose entry f executes one
// construct minic.Check rejects, and the error Parse gives it. Parsed
// without the check, every row but the marked ones fails on the
// tree-walker with the same message: Check moved that run-time error to
// parse. The marked rows never failed at run time: using the value of a
// call that may return none (C's rule, new with Check), and a construct
// that fails whenever it runs in code that never runs.
func TestCheckRejects(t *testing.T) {
	cases := []struct {
		name, src, want string
		never           string // why the run never failed; "" if it did
	}{
		// Undefined names and functions.
		{"undef-var", `int f() { return x; }`, `1:18: undefined variable "x"`, ""},
		{"undef-var-assign", `int f() { x = 3; return 0; }`, `1:11: undefined variable "x"`, ""},
		{"undef-var-incdec", `void f() { x++; }`, `1:12: undefined variable "x"`, ""},
		{"undef-fn", `int f() { return g(); }`, `1:18: call to undefined function "g"`, ""},
		{"sibling-scope", `int f() { if (true) { int x = 1; } return x; }`, `1:43: undefined variable "x"`, ""},
		{"for-init-scope", `int f() { for (int i = 0; i < 2; i++) { } return i; }`, `1:50: undefined variable "i"`, ""},
		{"declared-after-use", `int f() { x = 1; int x = 2; return x; }`, `1:11: undefined variable "x"`, ""},
		{"initializer-reads-itself", `int f() { int x = x + 1; return x; }`, `1:19: undefined variable "x"`, ""},
		// Calls.
		{"user-call-arity", `int g(int a) { return a; } int f() { return g(1, 2); }`, `1:45: call g: 2 args, want 1`, ""},
		{"pointer-param-from-scalar", `int g(double *a) { return 0; } int f() { return g(1); }`,
			`1:49: call g param a: expected buffer for double *, got int`, ""},
		{"pointer-param-wrong-kind", `int g(double *a) { return 0; } int f() { float p[2]; return g(p); }`,
			`1:61: call g param a: buffer element kind float, want double`, ""},
		{"builtin-arity", `int f() { return sqrt(1.0, 2.0); }`, `1:18: sqrt: 2 args, want 1`, ""},
		// break and continue.
		{"break-outside-loop", `int f() { break; return 0; }`, `1:11: break/continue escaped function f`, ""},
		{"continue-outside-loop", `void f() { if (true) { continue; } }`, `1:24: break/continue escaped function f`, ""},
		// Arithmetic and comparisons.
		{"add-to-pointer", `int f() { int p[2]; return p + 1; }`, `1:28: non-numeric operands to +`, ""},
		{"compare-pointer", `bool f() { int p[2]; return p < 1; }`, `1:29: non-numeric operands to <`, ""},
		{"multiply-void", `int f() { return printf("x") * 2; }`, `1:18: non-numeric operands to *`, ""},
		{"void-variable", `int f() { void v; return v + 1; }`, `1:26: non-numeric operands to +`, ""},
		{"mod-on-floats-assign", `double f() { double vd = -1.75; double wd = 4.5; double x = 1.0; x = vd % wd; return x; }`,
			`1:70: % requires int operands`, ""},
		{"mod-on-floats-decl", `double f() { double vd = -1.75; double wd = 4.5; double x = vd % wd; return x; }`,
			`1:61: % requires int operands`, ""},
		{"mod-on-bool", `int f() { bool b = true; return b % 2; }`, `1:33: % requires int operands`, ""},
		{"compound-assign-to-pointer", `double f() { double pd[9]; int vi = 7; pd += vi + 1; return 1.0; }`,
			`1:40: non-numeric compound assignment`, ""},
		{"compound-assign-pointer", `void f() { double p[2]; double x = 0.0; x += p; }`, `1:41: non-numeric compound assignment`, ""},
		{"compound-assign-element-pointer", `void f() { double p[2]; p[0] -= p; }`, `1:25: non-numeric compound assignment`, ""},
		// Indexing.
		{"index-non-array", `int f() { int x = 1; return x[0]; }`, `1:29: indexing non-array value (int)`, ""},
		{"store-non-array", `void f() { double x = 1.0; x[1] = 2.0; }`, `1:28: indexing non-array value (double)`, ""},
		// Assignment, ++ and --.
		{"assign-to-pointer", `double f() { double pd[9]; int vi = 7; pd = vi + 1; return 1.0; }`,
			`1:40: cannot assign to buffer`, ""},
		{"assign-to-void", `void f() { void v; v = 1; }`, `1:20: cannot assign to void`, ""},
		{"increment-pointer", `void f() { double p[2]; p++; }`, `1:25: cannot ++/-- a buffer`, ""},
		{"decrement-bool", `void f() { bool b = true; b--; }`, `1:27: cannot ++/-- a bool`, ""},
		// Pointers declared, cast and returned.
		{"declare-pointer-uninitialised", `void f() { double *q; }`, `1:12: declare q: expected buffer for double *, got void`, ""},
		{"declare-pointer-from-binary", `double f() { int vi = 7; double *q = vi + 1; return 1.0; }`,
			`1:26: declare q: expected buffer for double *, got int`, ""},
		{"declare-pointer-from-scalar", `double f() { double vd = -1.75; double *q = vd; return 1.0; }`,
			`1:33: declare q: expected buffer for double *, got double`, ""},
		{"declare-pointer-wrong-kind", `double f() { float pf[9]; double *q = pf; return 1.0; }`,
			`1:27: declare q: buffer element kind float, want double`, ""},
		{"cast-to-pointer", `void f() { double x = ((double *)1)[0]; }`, `1:24: expected buffer for double *, got int`, ""},
		{"cast-pointer-wrong-kind", `void f() { float p[2]; double x = ((double *)p)[0]; }`,
			`1:36: buffer element kind float, want double`, ""},
		{"return-scalar-as-pointer", `double *g() { return 1; } void f() { g(); }`,
			`1:15: return: expected buffer for double *, got int`, ""},
		// The value of a call that may return none.
		{"user-call-falls-off-its-end", `int g(int n) { if (n > 2) { return n; } } double f() { return g(1) + 2.0; }`,
			`1:63: function g used as a value can end without returning one`, "the run failed on the sum instead"},
		{"void-call-value", `void g() { } int f() { int x = g(); return x; }`,
			`1:32: void function g used as a value`, "a void value converts to 0"},
		{"bare-return-value", `int g(int n) { if (n > 0) { return; } return n; } int f() { return g(1); }`,
			`1:68: function g used as a value can end without returning one`, "a void value converts to 0"},
		// Dead code is checked too.
		{"dead-undef", `int f() { if (false) { return zzz; } return 7; }`, `1:31: undefined variable "zzz"`, "it never ran"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := minic.Parse(c.src)
			var perr *minic.ParseError
			if !errors.As(err, &perr) || perr.Pos.String()+": "+perr.Msg != c.want {
				t.Fatalf("Parse error %v, want %s", err, c.want)
			}
			prog, err := minic.ParseUnchecked(c.src)
			if err != nil {
				t.Fatalf("unchecked parse: %v", err)
			}
			_, err = interp.Run(prog, interp.Config{Entry: "f", TreeWalk: true})
			msg := ""
			var rerr *interp.RuntimeError
			switch {
			case errors.As(err, &rerr):
				msg = rerr.Msg
			case err != nil:
				msg = err.Error()
			}
			if ran := c.never == ""; ran != (msg == perr.Msg) {
				t.Errorf("unchecked, the tree-walker's error is %v; want the check's message: %t", err, ran)
			}
		})
	}
}

// TestCheckAccepts: constructs whose run never fails pass the check, the
// neighbours of the rejected ones.
func TestCheckAccepts(t *testing.T) {
	for _, src := range []string{
		// Shadowing: an inner declaration, a for-init, an initialiser that
		// reads the outer name, a parameter redeclared in the body.
		`int f(int n) { int x = 1; { double x = 2.0; x += n; } for (int x = 0; x < 2; x++) { } int n = n + x; return n; }`,
		// A pointer from a pointer of its kind: parameters, declarations,
		// casts and returns; element stores and compound element stores.
		`double *g(double *p) { return p; } void f() { double a[2]; double *q = a; g(q)[0] = 1.0; ((double *)q)[1] += 2; }`,
		// Scalars convert to each other, and a pointer to a scalar.
		`int f() { int p[2]; bool b = 3; b = 2.5; double d = b; int x = p; return (int)d + x; }`,
		// Unary minus and logic on anything; a condition on a pointer.
		`double f() { int p[2]; bool b = !p && p || 1.0; if (p) { b = false; } return -p; }`,
		// A call's value discarded, a value-returning call used, and
		// printf of anything.
		`void h() { } int g(int n) { if (n > 0) { return 1; } else { return 2; } } void f() { h(); g(1); int x = g(2) + 1; printf("%d %g", x, 1.5); }`,
		// break and continue in loops.
		`void f() { for (;;) { if (true) { break; } } int i = 0; while (i < 2) { i++; continue; } }`,
	} {
		if _, err := minic.Parse(src); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

// TestCheckScalesLinearly: a name costs the check the same however many
// are in scope, so a program with eight times the variables, each declared
// and then read, checks in about eight times the time. A scan of the
// scope stack per name would take sixty-four.
//
// The two programs are checked in turn, fifteen rounds of one check each,
// and each is timed as its fastest check: both minimums are taken over the
// same stretch of the host's fast and slow moments. Three checks of the
// small program and then three of the large one failed about one run in
// sixty on a quiet host and one in three on a busy one, because the large
// program's fastest check ranged from 5 to 18 ms between runs. Timing the
// small program alone over as much wall time as the large one does not
// help: its repeated, cache-warm checks read up to 34x.
func TestCheckScalesLinearly(t *testing.T) {
	parse := func(n int) *minic.Program {
		var b strings.Builder
		b.WriteString("void f() {\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "int a%d;\n", i)
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "a%d++;\n", i)
		}
		b.WriteString("}\n")
		prog, err := minic.ParseUnchecked(b.String())
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	timeCheck := func(prog *minic.Program) time.Duration {
		start := time.Now()
		if err := minic.Check(prog); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	smallProg, largeProg := parse(2000), parse(16000)
	small, large := time.Duration(1<<62), time.Duration(1<<62)
	for range 15 {
		large = min(large, timeCheck(largeProg))
		small = min(small, timeCheck(smallProg))
	}
	ratio := float64(large) / float64(small)
	t.Logf("8x the variables took %.1fx the time (%v vs %v)", ratio, large, small)
	if ratio > 24 {
		t.Errorf("8x the variables took %.0fx the time (%v vs %v)", ratio, large, small)
	}
}
