package flowlang_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"psaflow/internal/flowlang"
)

// lexFixture holds every token Lex returns for the corpus below — position,
// kind, literal and String() — and each input's Lex and Parse outcome, as
// the commit before the two front ends shared one scanner produced them;
// the rows on which error wins, as the commit before the parsers pulled
// their tokens from the lexer produced them.
// It is frozen: a change to it is a change to what a flow document means,
// made by hand.
const lexFixture = "testdata/lex.golden"

// lexInputs are the corpus's hand-written inputs: every lexical error, the
// lexical corners both front ends share (numbers, escapes, comments,
// positions past multi-byte and invalid UTF-8, NUL), and which error wins
// when an input has both a lexical and a syntax error.
var lexInputs = [][2]string{
	{"unterminated-string", "flow \"d"},
	{"unterminated-string-eof", `flow "d\`},
	{"unterminated-comment", "flow \"d\" {\n  /* never closed\n}"},
	{"bad-escape", `flow "a\qb" { task render-design }`},
	{"bad-exponent", "flow \"d\" {\n  budget 1e\n}"},
	{"bad-exponent-sign", "flow \"d\" { budget 2.5e- }"},
	{"directive", "#define N 4\nflow \"d\" { task render-design }"},
	{"bitwise-or", "flow \"d\" | { }"},
	{"unexpected-char", "flow \"d\" { task a@b }"},
	{"invalid-utf8", "flow \xff \"d\""},
	{"numbers", "0 12 3.14 1e9 2.5e-3 1E+7 1. 1.x 7.e2 6f"},
	{"punctuation", "{ } ( ) , = ! ."},
	{"escapes", `flow "a\n\t\\\"b" { use "" }`},
	{"comments-and-positions", "# c\r\n// c\nflow\t\"d\" { # inline\n  task  render-design // end\n}"},
	{"kebab", "task remove-plus-eq-dep a-1 x- _y-z"},
	{"unicode", "flow \"\u00fc\xff\" { task h\u00e9llo }"},
	{"nul", "flow \"d\" { task render-design }\x00 junk"},
	{"keywords", "flow def use task branch path foreach in as when strategy gated revisions budget retry faults flows"},
	{"empty", ""},
	{"parse-error", "flow \"d\" {\n  retry tries=3\n}"},
	// A lexical error anywhere wins over a syntax error before it: after
	// a bad retry key, past nesting deeper than the parser admits, and in
	// the token right after a '('.
	{"parse-error-then-lex-error", "flow \"d\" { retry tries=3 } @"},
	{"nesting-then-lex-error", "flow \"d\" { " + strings.Repeat("when sharing { ", 20000) + "@"},
	{"paren-lex-error", "flow \"d\" { task a(@"},
}

// lexCase is one corpus input; list is false for the inputs whose tokens
// are too many to list (the nesting ones), which record a count.
type lexCase struct {
	name string
	src  string
	list bool
}

// lexCorpus is the three example flows, lexInputs, and nesting twice as
// deep as the parser admits.
func lexCorpus(t testing.TB) []lexCase {
	var cases []lexCase
	for _, name := range []string{"paper.psa", "minimal.psa", "faults.psa"} {
		cases = append(cases, lexCase{name, readExample(t, name), true})
	}
	for _, c := range lexInputs {
		cases = append(cases, lexCase{c[0], c[1], true})
	}
	const deep = 20000
	return append(cases,
		lexCase{"nesting-when", "flow \"d\" { " + strings.Repeat("when sharing { ", deep) + "task render-design" + strings.Repeat(" }", deep) + " }", false},
		lexCase{"nesting-branch", "flow \"d\" { " + strings.Repeat("branch \"b\" strategy all { path \"p\" { ", deep/2) + "task render-design" + strings.Repeat(" } }", deep/2) + " }", false})
}

// describeErr renders an error with the front end's error type and fields.
func describeErr(err error) string {
	var le *flowlang.LexError
	var pe *flowlang.ParseError
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
	toks, err := flowlang.Lex(c.src)
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
	if _, err := flowlang.Parse(c.src); err != nil {
		fmt.Fprintf(sb, "parse: %s\n", describeErr(err))
	} else {
		fmt.Fprintf(sb, "parse: ok\n")
	}
}

// TestLexFixture: every token, position and error of the corpus equals the
// fixture's, exactly.
func TestLexFixture(t *testing.T) {
	var sb strings.Builder
	for _, c := range lexCorpus(t) {
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
