package minic_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/minic"
)

// TestParseDepthLimit regression-tests the recursion guard: nesting beyond
// the parser's limit must come back as a ParseError, not a fatal goroutine
// stack overflow (which would kill a daemon parsing untrusted source).
func TestParseDepthLimit(t *testing.T) {
	cases := map[string]string{
		"parens": "int f() { return " + strings.Repeat("(", 500000) + "1" + strings.Repeat(")", 500000) + "; }",
		"unary":  "int f() { return " + strings.Repeat("!", 500000) + "1; }",
		"blocks": "int f() { " + strings.Repeat("{", 500000) + strings.Repeat("}", 500000) + " }",
		"casts":  "int f() { return " + strings.Repeat("(int)", 500000) + "1; }",
	}
	for name, src := range cases {
		if _, err := minic.Parse(src); err == nil || !strings.Contains(err.Error(), "nesting too deep") {
			t.Errorf("%s: want nesting-depth error, got %v", name, err)
		}
	}
	// Reasonable nesting still parses.
	ok := "int f() { return " + strings.Repeat("(", 500) + "1" + strings.Repeat(")", 500) + "; }"
	if _, err := minic.Parse(ok); err != nil {
		t.Errorf("500-deep parens should parse: %v", err)
	}
}

// parseSeeds is the FuzzParse seed corpus: the five bundled programs,
// small and malformed inputs, and the lexical fixture's inputs.
func parseSeeds() []string {
	var seeds []string
	for _, b := range bench.All() {
		seeds = append(seeds, b.Source)
	}
	seeds = append(seeds,
		"",
		"int f() { return 0; }",
		"void g(int *p) { for (int i = 0; i < 10; i++) p[i] = i; }",
		"int h() { return ((((((1)))))); }",
		"/* unterminated",
		`"unterminated string`,
		// Rejected by the check, one rule each: were one accepted, the
		// oracle would fail.
		"int f() { return x; }",
		"int f(int n) { return n[0]; }",
		"int f(int *p) { return p + 1; }",
		"void g() { } int f() { return g() * 2; }")
	for _, c := range lexInputs {
		seeds = append(seeds, c[1])
	}
	return seeds
}

// FuzzParse feeds arbitrary byte strings to the MiniC front end. Parse must
// either return a program or an error — never panic — regardless of input:
// the service layer hands it untrusted source straight off the wire. And
// minic.TypeOf must type every expression of a program Parse accepts
// (ok == true) under the scope the expression is evaluated in: the VM's
// lowering relies on it, and the analyses type submitted programs outside
// any recover. The parser pulls its tokens as it goes, but a lexical error
// anywhere wins as if the text were lexed first: whenever Lex fails,
// Parse fails with the same LexError. Every list of a program Parse
// accepts is at capacity and every empty one nil (checkParsedLists), the
// counting pass counts exactly what its parse takes, a parse from slabs
// counted empty builds the same tree, and CloneFunc copies every function
// exactly (checkCopy).
func FuzzParse(f *testing.F) {
	for _, src := range parseSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := minic.Parse(src)
		if err == nil && prog == nil {
			t.Fatal("Parse returned nil program and nil error")
		}
		if _, lexErr := minic.Lex(src); lexErr != nil {
			var want, got *minic.LexError
			errors.As(lexErr, &want)
			if !errors.As(err, &got) || *got != *want {
				t.Fatalf("Lex fails with %v, Parse with %v", lexErr, err)
			}
		}
		if err != nil {
			return
		}
		checkParsedLists(t, "the program", prog)
		if misses, err := minic.CountMisses(src); err != nil || len(misses) > 0 {
			t.Fatalf("the counting pass misses %v (%v)", misses, err)
		}
		if dry, err := minic.ParseDry(src); err != nil || !reflect.DeepEqual(dry, prog) {
			t.Fatalf("the dry parse builds another tree, or fails with %v", err)
		}
		for _, fn := range prog.Funcs {
			checkCopy(t, fn.Name, minic.CloneFunc(fn), fn)
			s := &blockScope{prog: prog, blocks: []map[string]minic.Type{{}}}
			for _, p := range fn.Params {
				s.blocks[0][p.Name] = p.Type
			}
			s.stmt(fn.Body, func(e minic.Expr) {
				if _, ok := minic.TypeOf(e, s); !ok {
					t.Errorf("%s: %s at %s has no type", fn.Name, minic.FormatExpr(e), e.NodePos())
				}
			})
		}
	})
}

// blockScope is MiniC's scoping as the tree-walker applies it, one map per
// open scope: the function's parameters, then each block and for
// statement, a declaration visible after its own declaration.
type blockScope struct {
	prog   *minic.Program
	blocks []map[string]minic.Type
}

func (s *blockScope) VarType(name string) (minic.Type, bool) {
	for i := len(s.blocks) - 1; i >= 0; i-- {
		if t, ok := s.blocks[i][name]; ok {
			return t, true
		}
	}
	return minic.Type{}, false
}

func (s *blockScope) Func(name string) *minic.FuncDecl { return s.prog.Func(name) }

// stmt calls visit with every expression under st, each in its scope.
func (s *blockScope) stmt(st minic.Stmt, visit func(minic.Expr)) {
	exprs := func(e minic.Expr) {
		if e != nil {
			minic.Walk(e, func(n minic.Node) bool { visit(n.(minic.Expr)); return true })
		}
	}
	switch v := st.(type) {
	case *minic.Block:
		s.blocks = append(s.blocks, map[string]minic.Type{})
		for _, c := range v.Stmts {
			s.stmt(c, visit)
		}
		s.blocks = s.blocks[:len(s.blocks)-1]
	case *minic.DeclStmt:
		exprs(v.ArrayLen)
		exprs(v.Init)
		t := v.Type
		if v.ArrayLen != nil {
			t = minic.Type{Kind: t.Kind, Ptr: true}
		}
		s.blocks[len(s.blocks)-1][v.Name] = t
	case *minic.ExprStmt:
		exprs(v.X)
	case *minic.ForStmt:
		s.blocks = append(s.blocks, map[string]minic.Type{})
		if v.Init != nil {
			s.stmt(v.Init, visit)
		}
		exprs(v.Cond)
		exprs(v.Post)
		s.stmt(v.Body, visit)
		s.blocks = s.blocks[:len(s.blocks)-1]
	case *minic.WhileStmt:
		exprs(v.Cond)
		s.stmt(v.Body, visit)
	case *minic.IfStmt:
		exprs(v.Cond)
		s.stmt(v.Then, visit)
		if v.Else != nil {
			s.stmt(v.Else, visit)
		}
	case *minic.ReturnStmt:
		exprs(v.X)
	}
}
