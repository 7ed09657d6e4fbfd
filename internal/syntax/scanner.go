package syntax

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Scanner is a cursor over one source text — the text and the byte offset
// of the next rune — with the scanners both languages share; a language's
// lexer embeds it and adds its own tokens. It decodes UTF-8 as it goes, an
// ASCII byte without a call, and never copies the text: Word and Number
// return substrings of it. Columns count runes, an invalid UTF-8 byte
// being one rune, U+FFFD. Peek and Advance return 0 at the end of the
// text, so a NUL in the text ends it too.
type Scanner struct {
	src       string
	off       int
	line, col int
}

// NewScanner returns a scanner at the start of src, position 1:1.
func NewScanner(src string) Scanner { return Scanner{src: src, line: 1, col: 1} }

// decode returns the rune at byte offset i, 0 past the end, and its width.
func (s *Scanner) decode(i int) (rune, int) {
	if i >= len(s.src) {
		return 0, 0
	}
	if b := s.src[i]; b < utf8.RuneSelf {
		return rune(b), 1
	}
	return utf8.DecodeRuneInString(s.src[i:])
}

// Peek returns the next rune without consuming it.
func (s *Scanner) Peek() rune {
	r, _ := s.decode(s.off)
	return r
}

// Peek2 returns the rune after the next one.
func (s *Scanner) Peek2() rune {
	_, w := s.decode(s.off)
	r, _ := s.decode(s.off + w)
	return r
}

// Advance consumes the next rune and returns it.
func (s *Scanner) Advance() rune {
	r, w := s.decode(s.off)
	if w == 0 {
		return 0
	}
	s.off += w
	if r == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return r
}

// Pos returns the position of the next rune.
func (s *Scanner) Pos() Pos { return Pos{Line: s.line, Col: s.col} }

// Errorf returns a LexError at p.
func (s *Scanner) Errorf(p Pos, format string, args ...any) error {
	return &LexError{Pos: p, Msg: fmt.Sprintf(format, args...)}
}

// HasPrefix reports whether the unread text starts with prefix, a text
// without U+FFFD.
func (s *Scanner) HasPrefix(prefix string) bool { return strings.HasPrefix(s.src[s.off:], prefix) }

// SkipLine consumes the rest of the line, leaving its newline unread.
func (s *Scanner) SkipLine() {
	for r := s.Peek(); r != 0 && r != '\n'; r = s.Peek() {
		s.Advance()
	}
}

// SkipBlockComment consumes a "/* ... */" comment, the scanner being at
// its "/*". A comment the text ends inside is an error at its start.
func (s *Scanner) SkipBlockComment() error {
	start := s.Pos()
	s.Advance()
	s.Advance()
	for s.Peek() != '*' || s.Peek2() != '/' {
		if s.Advance() == 0 {
			return s.Errorf(start, "unterminated block comment")
		}
	}
	s.Advance()
	s.Advance()
	return nil
}

// Word consumes the longest run of runes part accepts and returns it: the
// source text itself, unless the run holds an invalid byte, which the word
// spells as U+FFFD.
func (s *Scanner) Word(part func(rune) bool) string {
	start := s.off
	for r := s.Peek(); r != 0 && part(r); r = s.Peek() {
		s.Advance()
	}
	if w := s.src[start:s.off]; utf8.ValidString(w) {
		return w
	}
	var sb strings.Builder
	for _, r := range s.src[start:s.off] {
		sb.WriteRune(r)
	}
	return sb.String()
}

// Number consumes a decimal number starting at p: digits, then a fraction
// and an exponent, each optional. With bareDot a '.' belongs to the number
// even with no digit after it (MiniC's "1."); without, such a '.' is left
// unread. With suffix a trailing 'f' or 'F' belongs to it too (MiniC's
// single-precision literals). float reports a fraction, an exponent or a
// suffix. The text is a substring of the source.
func (s *Scanner) Number(p Pos, bareDot, suffix bool) (text string, float bool, err error) {
	start := s.off
	s.digits()
	if s.Peek() == '.' && (bareDot || unicode.IsDigit(s.Peek2())) {
		s.Advance()
		s.digits()
		float = true
	}
	if r := s.Peek(); r == 'e' || r == 'E' {
		s.Advance()
		if r := s.Peek(); r == '+' || r == '-' {
			s.Advance()
		}
		if !unicode.IsDigit(s.Peek()) {
			return "", false, s.Errorf(p, "malformed exponent in number %q", s.src[start:s.off])
		}
		s.digits()
		float = true
	}
	if r := s.Peek(); suffix && (r == 'f' || r == 'F') {
		s.Advance()
		float = true
	}
	return s.src[start:s.off], float, nil
}

func (s *Scanner) digits() {
	for unicode.IsDigit(s.Peek()) {
		s.Advance()
	}
}

// Quoted consumes a double-quoted string starting at p, the scanner being
// at its opening quote, and returns its value. The escapes are \n, \t, \\
// and \"; a newline or the end of the text before the closing quote is an
// error at p.
func (s *Scanner) Quoted(p Pos) (string, error) {
	s.Advance()
	var sb strings.Builder
	for {
		switch r := s.Peek(); r {
		case 0, '\n':
			return "", s.Errorf(p, "unterminated string literal")
		case '"':
			s.Advance()
			return sb.String(), nil
		case '\\':
			s.Advance()
			switch esc := s.Advance(); esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '"':
				sb.WriteRune(esc)
			default:
				return "", s.Errorf(p, "unsupported escape \\%c", esc)
			}
		default:
			sb.WriteRune(s.Advance())
		}
	}
}
