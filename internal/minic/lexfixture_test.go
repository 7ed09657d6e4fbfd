package minic_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"psaflow/internal/bench"
	"psaflow/internal/minic"
)

// lexFixture holds every token Lex returns for the corpus below — position,
// kind, literal and String() — and each input's Lex and Parse outcome, as
// the commit before the two front ends shared one scanner produced them;
// the rows on which error wins, as the commit before the parsers pulled
// their tokens from the lexer produced them.
// It is frozen: a change to it is a change to what MiniC source means,
// made by hand.
const lexFixture = "testdata/lex.golden"

// lexInputs are the corpus's hand-written inputs: every lexical error, the
// lexical corners both front ends share (numbers, escapes, comments,
// positions past multi-byte and invalid UTF-8, NUL), and which error wins
// when an input has both a lexical and a syntax error.
var lexInputs = [][2]string{
	{"unterminated-string", "void f() { printf(\"never closed); }\nint x;"},
	{"unterminated-string-eof", `"abc\`},
	{"unterminated-comment", "int x;\n/* never closed\n"},
	{"bad-escape", `void f() { printf("a\qb"); }`},
	{"bad-exponent", "double x = 1e;"},
	{"bad-exponent-sign", "double x = 2.5e+;"},
	{"directive", "#define N 4\nint x;"},
	{"bitwise-or", "int f() { return a | b; }"},
	{"unexpected-char", "int x @ 3;"},
	{"invalid-utf8", "int \xff x;"},
	{"includes-and-pragmas", "#include <math.h>\n#include \"x.h\"\n#pragma unroll 4\n#pragma  omp parallel for  \nvoid f() { for (int i = 0; i < 4; i++) { } }\n"},
	{"include-at-eof", "int x;\n#include <a.h>"},
	{"numbers", "0 12345 3.14 1e9 2.5e-3 1E+7 1.0f 6f 6F .5 1. 0.f 7.e2"},
	{"operators", "+ += ++ - -= -- * *= / /= % < <= > >= == != = && || ! & ( ) { } [ ] , ;"},
	{"escapes", `"a\n\t\\\"b" ""`},
	{"comments-and-positions", "// line\r\nint /* in\nline */ x;\t/**/y\n  z // end"},
	{"unicode", "int h\u00e9llo = 1; printf(\"\u00fc\xff\"); \u00e9x"},
	{"pragma-invalid-utf8", "#pragma x\xffy\nvoid f() { }"},
	{"nul", "int x;\x00 junk"},
	{"keywords", "forx for whiley while int_ int const true false void bool double float if else return break continue"},
	{"empty", ""},
	{"parse-error", "int f() { return 1 }"},
	// A lexical error anywhere wins over a syntax error before it: after
	// a missing ';', past nesting deeper than the parser admits, and in
	// the token after the '(' the parser reads ahead of for a cast.
	{"parse-error-then-lex-error", "int f() { return 1 } @"},
	{"nesting-then-lex-error", "int f() { return " + strings.Repeat("(", 20000) + "1 @"},
	{"cast-lookahead-lex-error", "int f() { return (@"},
}

// lexCase is one corpus input; list is false for the inputs whose tokens
// are too many to list (the nesting ones), which record a count.
type lexCase struct {
	name string
	src  string
	list bool
}

// lexCorpus is the five bundled programs, lexInputs, and nesting twice as
// deep as the parser admits.
func lexCorpus() []lexCase {
	var cases []lexCase
	for _, b := range bench.All() {
		cases = append(cases, lexCase{b.Name, b.Source, true})
	}
	for _, c := range lexInputs {
		cases = append(cases, lexCase{c[0], c[1], true})
	}
	const deep = 20000
	return append(cases,
		lexCase{"nesting-parens", "int f() { return " + strings.Repeat("(", deep) + "1" + strings.Repeat(")", deep) + "; }", false},
		lexCase{"nesting-blocks", "int f() { " + strings.Repeat("{", deep) + strings.Repeat("}", deep) + " }", false})
}

// describeErr renders an error with the front end's error type and fields.
func describeErr(err error) string {
	var le *minic.LexError
	var pe *minic.ParseError
	switch {
	case errors.As(err, &le):
		return fmt.Sprintf("LexError %s %q: %v", le.Pos, le.Msg, err)
	case errors.As(err, &pe):
		return fmt.Sprintf("ParseError %s %q: %v", pe.Pos, pe.Msg, err)
	}
	return fmt.Sprintf("%v", err)
}

func lexTable(sb *strings.Builder, c lexCase) {
	fmt.Fprintf(sb, "== %s\n", c.name)
	toks, err := minic.Lex(c.src)
	if err != nil {
		fmt.Fprintf(sb, "lex: %s\n", describeErr(err))
	} else {
		if c.list {
			for _, t := range toks {
				fmt.Fprintf(sb, "%s %d %q %s\n", t.Pos, int(t.Kind), t.Lit, t)
			}
		}
		fmt.Fprintf(sb, "lex: %d tokens\n", len(toks))
	}
	if _, err := minic.Parse(c.src); err != nil {
		fmt.Fprintf(sb, "parse: %s\n", describeErr(err))
	} else {
		fmt.Fprintf(sb, "parse: ok\n")
	}
}

// TestLexFixture: every token, position and error of the corpus equals the
// fixture's, exactly.
func TestLexFixture(t *testing.T) {
	var sb strings.Builder
	for _, c := range lexCorpus() {
		lexTable(&sb, c)
	}
	want, err := os.ReadFile(lexFixture)
	if err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got %q\nwant %q", lexFixture, i+1, g, w)
			if shown++; shown == 10 {
				t.Fatal("more differences not shown")
			}
		}
	}
}
