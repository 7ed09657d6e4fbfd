package syntax

import (
	"errors"
	"testing"
	"unicode"
)

// TestScannerPositions: columns count runes — a multi-byte rune and an
// invalid byte, read as U+FFFD, are one column each — lines count '\n'
// only, and the end of the text reads as 0 without moving.
func TestScannerPositions(t *testing.T) {
	s := NewScanner("aé\xff\r\nb")
	for _, want := range []struct {
		r   rune
		pos Pos
	}{
		{'a', Pos{1, 1}}, {'é', Pos{1, 2}}, {'�', Pos{1, 3}},
		{'\r', Pos{1, 4}}, {'\n', Pos{1, 5}}, {'b', Pos{2, 1}},
	} {
		if got := s.Pos(); got != want.pos {
			t.Fatalf("before %q: at %s, want %s", want.r, got, want.pos)
		}
		if r := s.Advance(); r != want.r {
			t.Fatalf("at %s: read %q, want %q", want.pos, r, want.r)
		}
	}
	if s.Peek() != 0 || s.Peek2() != 0 || s.Advance() != 0 || s.Pos().String() != "2:2" {
		t.Errorf("at the end: Peek %q, Peek2 %q, Pos %s; want 0, 0, 2:2", s.Peek(), s.Peek2(), s.Pos())
	}
	if s := NewScanner("éx"); s.Peek() != 'é' || s.Peek2() != 'x' {
		t.Errorf("Peek, Peek2 = %q, %q; want 'é', 'x'", s.Peek(), s.Peek2())
	}
}

// TestWord: a word is the longest run part accepts, with each invalid
// byte as U+FFFD; a NUL ends it like the end of the text.
func TestWord(t *testing.T) {
	ident := func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }
	s := NewScanner("héllo_1 rest")
	if w := s.Word(ident); w != "héllo_1" || s.Peek() != ' ' {
		t.Errorf("Word = %q, next %q; want %q, ' '", w, s.Peek(), "héllo_1")
	}
	s = NewScanner("#pragma x\xffy\nnext")
	if w := s.Word(func(r rune) bool { return r != '\n' }); w != "#pragma x�y" || s.Peek() != '\n' {
		t.Errorf("line Word = %q, next %q", w, s.Peek())
	}
	s = NewScanner("ab\x00cd")
	if w := s.Word(func(rune) bool { return true }); w != "ab" {
		t.Errorf("Word over a NUL = %q, want \"ab\"", w)
	}
}

// TestSkipLine: a line comment ends before its newline, and HasPrefix
// reads ahead without moving.
func TestSkipLine(t *testing.T) {
	s := NewScanner("#include <m.h>\nx")
	if !s.HasPrefix("#include") || s.HasPrefix("#pragma") || s.HasPrefix("#include <m.h>\nx!") {
		t.Error("HasPrefix misreads the text ahead")
	}
	s.SkipLine()
	if s.Peek() != '\n' || s.Pos() != (Pos{1, 15}) {
		t.Errorf("after SkipLine: next %q at %s, want '\\n' at 1:15", s.Peek(), s.Pos())
	}
}

// TestSkipBlockComment: a comment may span lines; the text ending inside
// one, or a NUL inside one, is an error at its start.
func TestSkipBlockComment(t *testing.T) {
	s := NewScanner("/* a\n b */x")
	if err := s.SkipBlockComment(); err != nil || s.Peek() != 'x' || s.Pos() != (Pos{2, 6}) {
		t.Errorf("SkipBlockComment: %v, next %q at %s; want nil, 'x' at 2:6", err, s.Peek(), s.Pos())
	}
	for _, src := range []string{"/* never closed", "/* a *", "/*/", "/* \x00 */"} {
		s := NewScanner(src)
		if err := s.SkipBlockComment(); err == nil || err.Error() != "lex 1:1: unterminated block comment" {
			t.Errorf("SkipBlockComment(%q) = %v", src, err)
		}
	}
}

// TestNumber covers both languages' numbers: MiniC reads a bare trailing
// dot and the single-precision suffix (bareDot, suffix), the flow DSL
// neither, leaving them for its next token.
func TestNumber(t *testing.T) {
	for _, c := range []struct {
		src             string
		bareDot, suffix bool
		text            string
		float           bool
		next            rune
	}{
		{"0", false, false, "0", false, 0},
		{"12345;", true, true, "12345", false, ';'},
		{"3.14", false, false, "3.14", true, 0},
		{"1e9", false, false, "1e9", true, 0},
		{"2.5e-3", true, true, "2.5e-3", true, 0},
		{"1E+7", false, false, "1E+7", true, 0},
		{"1.0f", true, true, "1.0f", true, 0},
		{"6f", true, true, "6f", true, 0},
		{"6f", false, false, "6", false, 'f'},
		{".5", true, true, ".5", true, 0},
		{"1.", true, true, "1.", true, 0},
		{"1.x", false, false, "1", false, '.'},
		{"1.5.", false, false, "1.5", true, '.'},
	} {
		s := NewScanner(c.src)
		text, float, err := s.Number(s.Pos(), c.bareDot, c.suffix)
		if err != nil || text != c.text || float != c.float || s.Peek() != c.next {
			t.Errorf("Number(%q, bareDot %v, suffix %v) = %q, %v, %v, next %q; want %q, %v, next %q",
				c.src, c.bareDot, c.suffix, text, float, err, s.Peek(), c.text, c.float, c.next)
		}
	}
}

// TestNumberMalformedExponent: an exponent needs a digit, and the error
// sits at the number's start and quotes what was read.
func TestNumberMalformedExponent(t *testing.T) {
	for src, want := range map[string]string{
		"x 1e":     `lex 1:3: malformed exponent in number "1e"`,
		"x 1e+":    `lex 1:3: malformed exponent in number "1e+"`,
		"x 2.5E-y": `lex 1:3: malformed exponent in number "2.5E-"`,
	} {
		s := NewScanner(src)
		s.Advance()
		s.Advance()
		if _, _, err := s.Number(s.Pos(), true, true); err == nil || err.Error() != want {
			t.Errorf("Number(%q) = %v, want %s", src, err, want)
		}
	}
}

// TestQuoted: the four escapes, and everything else taken rune by rune.
func TestQuoted(t *testing.T) {
	for src, want := range map[string]string{
		`""`:                  "",
		`"hello\nworld" tail`: "hello\nworld",
		`"a\t\\\"b"`:          "a\t\\\"b",
		"\"ü\xff\"":           "ü�",
	} {
		s := NewScanner(src)
		if got, err := s.Quoted(s.Pos()); err != nil || got != want {
			t.Errorf("Quoted(%q) = %q, %v; want %q", src, got, err, want)
		}
	}
}

// TestQuotedErrors: a string may not run past its line or the text, and
// an unknown escape is an error, all at the opening quote.
func TestQuotedErrors(t *testing.T) {
	for src, want := range map[string]string{
		`"oops`:           "lex 1:1: unterminated string literal",
		"\"line\nbreak\"": "lex 1:1: unterminated string literal",
		`"a\qb"`:          `lex 1:1: unsupported escape \q`,
		`"abc\`:           "lex 1:1: unsupported escape \\\x00",
	} {
		s := NewScanner(src)
		if _, err := s.Quoted(s.Pos()); err == nil || err.Error() != want {
			t.Errorf("Quoted(%q) = %v, want %q", src, err, want)
		}
	}
}

// TestDepth: the guard admits maxDepth levels and answers the next with a
// ParseError at the position it is given; leaving makes room again.
func TestDepth(t *testing.T) {
	var d Depth
	for i := 0; i < maxDepth; i++ {
		if err := d.Enter(Pos{1, 1}); err != nil {
			t.Fatalf("level %d: %v", i+1, err)
		}
	}
	err := d.Enter(Pos{3, 4})
	var pe *ParseError
	if !errors.As(err, &pe) || err.Error() != "parse 3:4: nesting too deep (more than 10000 levels)" {
		t.Fatalf("level %d: %v, want a ParseError at 3:4", maxDepth+1, err)
	}
	d.Leave()
	d.Leave()
	if err := d.Enter(Pos{1, 1}); err != nil {
		t.Errorf("after leaving: %v", err)
	}
}

// TestScannerCopiesNothing: a word and a number are substrings of the
// source, so reading them allocates nothing.
func TestScannerCopiesNothing(t *testing.T) {
	ident := func(r rune) bool { return unicode.IsLetter(r) || r == '_' }
	allocs := testing.AllocsPerRun(10, func() {
		s := NewScanner("héllo_x 2.5e-3f")
		s.Word(ident)
		s.Advance()
		s.Number(s.Pos(), true, true)
	})
	if allocs != 0 {
		t.Errorf("Word and Number make %.0f allocations, want 0", allocs)
	}
}
