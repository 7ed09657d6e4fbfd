package minic_test

import (
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
		`"unterminated string`)
	for _, c := range lexInputs {
		seeds = append(seeds, c[1])
	}
	return seeds
}

// FuzzParse feeds arbitrary byte strings to the MiniC front end. Parse must
// either return a program or an error — never panic — regardless of input:
// the service layer hands it untrusted source straight off the wire. And
// minic.TypeOf must type every expression of an accepted program, under a
// scope of its function's parameters and declarations, without panicking:
// the analyses type submitted programs outside any recover.
func FuzzParse(f *testing.F) {
	for _, src := range parseSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := minic.Parse(src)
		if err == nil && prog == nil {
			t.Fatal("Parse returned nil program and nil error")
		}
		if err != nil {
			return
		}
		for _, fn := range prog.Funcs {
			scope := scopeOf(fn)
			minic.Walk(fn, func(n minic.Node) bool {
				if e, ok := n.(minic.Expr); ok {
					minic.TypeOf(e, scope)
				}
				return true
			})
		}
	})
}
