package flowlang

import (
	"unicode"

	"psaflow/internal/syntax"
)

// LexError describes a lexical error with its position.
type LexError = syntax.LexError

// lexer turns flow-DSL source text into tokens. Comments run from '#' or
// "//" to end of line. Identifiers may contain '-' (task names are
// kebab-case), so "a-b" is one identifier, never a subtraction — the
// language has no arithmetic.
type lexer struct{ syntax.Scanner }

// Lex tokenizes the entire input, returning the token list terminated by a
// TokEOF token, or the first lexical error. It is the lexer's whole output
// for tests and fixtures; Parse does not call it, but pulls the same
// tokens one at a time.
func Lex(src string) ([]Token, error) {
	lx := lexer{syntax.NewScanner(src)}
	var toks []Token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// skipWS consumes whitespace and comments.
func (lx *lexer) skipWS() {
	for {
		r := lx.Peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			lx.Advance()
		case r == '#', r == '/' && lx.Peek2() == '/':
			lx.SkipLine()
		default:
			return
		}
	}
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

// next returns the next token.
func (lx *lexer) next() (Token, error) {
	lx.skipWS()
	p := lx.Pos()
	r := lx.Peek()
	switch {
	case r == 0:
		return Token{Kind: TokEOF, Pos: p}, nil
	case unicode.IsLetter(r) || r == '_':
		name := lx.Word(isIdentPart)
		kind, ok := keywords[name]
		if !ok {
			kind = TokIdent
		}
		return Token{Kind: kind, Lit: name, Pos: p}, nil
	case unicode.IsDigit(r):
		text, _, err := lx.Number(p, false, false)
		if err != nil {
			return Token{}, err
		}
		return Token{Kind: TokNumber, Lit: text, Pos: p}, nil
	case r == '"':
		text, err := lx.Quoted(p)
		if err != nil {
			return Token{}, err
		}
		return Token{Kind: TokString, Lit: text, Pos: p}, nil
	}
	lx.Advance()
	switch r {
	case '{':
		return Token{Kind: TokLBrace, Pos: p}, nil
	case '}':
		return Token{Kind: TokRBrace, Pos: p}, nil
	case '(':
		return Token{Kind: TokLParen, Pos: p}, nil
	case ')':
		return Token{Kind: TokRParen, Pos: p}, nil
	case ',':
		return Token{Kind: TokComma, Pos: p}, nil
	case '=':
		return Token{Kind: TokAssign, Pos: p}, nil
	case '!':
		return Token{Kind: TokNot, Pos: p}, nil
	case '.':
		return Token{Kind: TokDot, Pos: p}, nil
	}
	return Token{}, lx.Errorf(p, "unexpected character %q", r)
}
