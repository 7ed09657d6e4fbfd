package minic_test

import (
	"fmt"
	"reflect"
	"testing"

	"psaflow/internal/minic"
)

// constructs are small programs with every node kind and every shape of
// list the parser builds: attached and free-standing pragmas, bodies that
// are and are not blocks, else-if chains, empty calls, casts, empty
// statements, for headers with parts left out, and an array declaration
// with an initialiser.
var constructs = []string{
	"",
	"void f() { }",
	"void f() { ;; }",
	"int g(int n, double *a, const float b[]) { return n; }",
	"void f(int n) { for (;;) { break; } for (n = 0; n < 3; n++) ; while (n) n--; }",
	"void f(int n, double *a) { for (int i = 0; i < n; i++) a[i] = -a[i] - (double)-i * 2.0f; }",
	"void f(int n) { if (n) n = 1; else if (n > 2) { n = 2; } else n = 3; if (!n) { } else { continue; } }",
	"void f() {\n#pragma a\n#pragma b\nint x = 1;\n#pragma c\nfor (int i = 0; i < 1; i++) {\n#pragma d\n#pragma e\nwhile (x) { x--; }\n}\n#pragma f\n}",
	"int h() { return 0; } void g(int a, int b) { } void f(int *p) { int a[10]; a[0] = h(); g(1, h()); g((int)2.5, (const int)true || false && p[0] != 1); }",
	"void f(int *p) { int a[p[1]] = 2; double *q = (double *)-p[0]; for (p[0]; p[1] < 2;) a[0] = a[1] = -(q[0]); }",
	"void f(double x) { x += 1; x -= 2; x *= 3; x /= 4; printf(\"%d\\n\", 1 % 2 <= 3 >= 4 == 5 < 6 > 7); { { } } }",
}

// emptyList names a list of n that is empty but not nil, or returns "".
func emptyList(n minic.Node) string {
	switch v := n.(type) {
	case *minic.Program:
		if v.Funcs != nil && len(v.Funcs) == 0 {
			return "the program's Funcs are empty but not nil"
		}
	case *minic.FuncDecl:
		if v.Params != nil && len(v.Params) == 0 {
			return fmt.Sprintf("%s's Params are empty but not nil", v.Name)
		}
	case *minic.Block:
		if v.Stmts != nil && len(v.Stmts) == 0 {
			return fmt.Sprintf("block at %s has empty Stmts that are not nil", v.NodePos())
		}
	case *minic.CallExpr:
		if v.Args != nil && len(v.Args) == 0 {
			return fmt.Sprintf("call of %s at %s has empty Args that are not nil", v.Fun, v.NodePos())
		}
	case *minic.ForStmt:
		if v.Pragmas != nil && len(v.Pragmas) == 0 {
			return fmt.Sprintf("for at %s has empty Pragmas that are not nil", v.NodePos())
		}
	case *minic.WhileStmt:
		if v.Pragmas != nil && len(v.Pragmas) == 0 {
			return fmt.Sprintf("while at %s has empty Pragmas that are not nil", v.NodePos())
		}
	}
	return ""
}

// checkParsedLists fails unless every list of prog — the program's Funcs
// and every Params, Stmts, Args and Pragmas — is at capacity, so that an
// append to one never writes into its neighbour's slots, and every empty
// one is nil.
func checkParsedLists(t *testing.T, what string, prog *minic.Program) {
	t.Helper()
	minic.Walk(prog, func(n minic.Node) bool {
		for _, msg := range []string{spareCap(n), emptyList(n)} {
			if msg != "" {
				t.Errorf("%s: %s", what, msg)
			}
		}
		return true
	})
}

// TestParsedListsOwnTheirSlots: every list of every program the parser
// builds — the five applications, the fuzz seeds and the constructs
// above — owns its slots, and an empty one is nil. A parse whose slabs
// were all counted empty, so that every node and list comes from a dry
// slab's fresh chunk, builds the same tree, or fails with the same error.
func TestParsedListsOwnTheirSlots(t *testing.T) {
	seeds := parseSeeds()
	for i, src := range append(seeds, constructs...) {
		what := fmt.Sprintf("seed %d", i)
		if i >= len(seeds) {
			what = fmt.Sprintf("construct %q", src)
		}
		prog, err := minic.ParseUnchecked(src)
		dry, dryErr := minic.ParseDry(src)
		if fmt.Sprint(err) != fmt.Sprint(dryErr) {
			t.Errorf("%s: the parse fails with %v, the dry parse with %v", what, err, dryErr)
			continue
		}
		if err != nil {
			if i >= len(seeds) {
				t.Errorf("%s: %v", what, err)
			}
			continue
		}
		checkParsedLists(t, what, prog)
		checkParsedLists(t, what+", parsed dry", dry)
		if !reflect.DeepEqual(prog, dry) {
			t.Errorf("%s: the dry parse builds another tree", what)
		}
	}
}

// TestParseCountsExact: for every program the parser accepts of the five
// applications, the fuzz seeds and the constructs above, the counting
// pass counts exactly the nodes and list slots the parse takes, so no
// slab holds a slot to spare that the AST would keep alive.
func TestParseCountsExact(t *testing.T) {
	for i, src := range append(parseSeeds(), constructs...) {
		misses, err := minic.CountMisses(src)
		if err != nil {
			continue
		}
		for _, m := range misses {
			t.Errorf("source %d: %s", i, m)
		}
	}
}
