package minic

import (
	"strings"
	"unicode"

	"psaflow/internal/syntax"
)

// LexError describes a lexical error with its position.
type LexError = syntax.LexError

// lexer turns MiniC source text into tokens. Comments and "#include"
// lines are skipped (the MiniC runtime provides all builtins); "#pragma"
// lines become single TokPragma tokens carrying the directive text after
// the word "#pragma" (trimmed).
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

// skipWS consumes whitespace, comments and #include lines. An include is
// skipped here, in a loop, so the stack stays flat however many a source
// has.
func (lx *lexer) skipWS() error {
	for {
		r := lx.Peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			lx.Advance()
		case r == '/' && lx.Peek2() == '/', r == '#' && lx.HasPrefix("#include"):
			lx.SkipLine()
		case r == '/' && lx.Peek2() == '*':
			if err := lx.SkipBlockComment(); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

func isIdentPart(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }

func notNewline(r rune) bool { return r != '\n' }

// next returns the next token.
func (lx *lexer) next() (Token, error) {
	if err := lx.skipWS(); err != nil {
		return Token{}, err
	}
	p := lx.Pos()
	r := lx.Peek()
	switch {
	case r == 0:
		return Token{Kind: TokEOF, Pos: p}, nil
	case r == '#':
		line := lx.Word(notNewline)
		if text, ok := strings.CutPrefix(line, "#pragma"); ok {
			return Token{Kind: TokPragma, Lit: strings.TrimSpace(text), Pos: p}, nil
		}
		return Token{}, lx.Errorf(p, "unsupported directive %q", line)
	case unicode.IsLetter(r) || r == '_':
		name := lx.Word(isIdentPart)
		kind, ok := keywords[name]
		if !ok {
			kind = TokIdent
		}
		return Token{Kind: kind, Lit: name, Pos: p}, nil
	case unicode.IsDigit(r) || (r == '.' && unicode.IsDigit(lx.Peek2())):
		text, float, err := lx.Number(p, true, true)
		if err != nil {
			return Token{}, err
		}
		kind := TokIntLit
		if float {
			kind = TokFloatLit
		}
		return Token{Kind: kind, Lit: text, Pos: p}, nil
	case r == '"':
		text, err := lx.Quoted(p)
		if err != nil {
			return Token{}, err
		}
		return Token{Kind: TokStringLit, Lit: text, Pos: p}, nil
	}
	return lx.lexOperator(p)
}

func (lx *lexer) lexOperator(p Pos) (Token, error) {
	r := lx.Advance()
	two := func(next rune, k2, k1 TokKind) Token {
		if lx.Peek() == next {
			lx.Advance()
			return Token{Kind: k2, Pos: p}
		}
		return Token{Kind: k1, Pos: p}
	}
	switch r {
	case '(':
		return Token{Kind: TokLParen, Pos: p}, nil
	case ')':
		return Token{Kind: TokRParen, Pos: p}, nil
	case '{':
		return Token{Kind: TokLBrace, Pos: p}, nil
	case '}':
		return Token{Kind: TokRBrace, Pos: p}, nil
	case '[':
		return Token{Kind: TokLBracket, Pos: p}, nil
	case ']':
		return Token{Kind: TokRBracket, Pos: p}, nil
	case ',':
		return Token{Kind: TokComma, Pos: p}, nil
	case ';':
		return Token{Kind: TokSemi, Pos: p}, nil
	case '+':
		if lx.Peek() == '+' {
			lx.Advance()
			return Token{Kind: TokPlusPlus, Pos: p}, nil
		}
		return two('=', TokPlusEq, TokPlus), nil
	case '-':
		if lx.Peek() == '-' {
			lx.Advance()
			return Token{Kind: TokMinusMinus, Pos: p}, nil
		}
		return two('=', TokMinusEq, TokMinus), nil
	case '*':
		return two('=', TokStarEq, TokStar), nil
	case '/':
		return two('=', TokSlashEq, TokSlash), nil
	case '%':
		return Token{Kind: TokPercent, Pos: p}, nil
	case '<':
		return two('=', TokLe, TokLt), nil
	case '>':
		return two('=', TokGe, TokGt), nil
	case '=':
		return two('=', TokEqEq, TokAssign), nil
	case '!':
		return two('=', TokNe, TokNot), nil
	case '&':
		if lx.Peek() == '&' {
			lx.Advance()
			return Token{Kind: TokAndAnd, Pos: p}, nil
		}
		return Token{Kind: TokAmp, Pos: p}, nil
	case '|':
		if lx.Peek() == '|' {
			lx.Advance()
			return Token{Kind: TokOrOr, Pos: p}, nil
		}
		return Token{}, lx.Errorf(p, "bitwise | is not supported")
	}
	return Token{}, lx.Errorf(p, "unexpected character %q", r)
}
