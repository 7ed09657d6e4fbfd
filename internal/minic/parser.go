package minic

import (
	"fmt"
	"strconv"
	"strings"

	"psaflow/internal/syntax"
)

// ParseError describes a syntax error with its position.
type ParseError = syntax.ParseError

// Parser is a recursive-descent parser for MiniC. It pulls its tokens
// from the lexer as it goes: tok is the current token, and ahead the one
// after it once peek has read it.
type Parser struct {
	lx     lexer
	tok    Token
	ahead  Token
	peeked bool
	// lexErr is the first lexical error. The lexer stops there, and the
	// parser reads EOF after it; the error wins over any syntax error,
	// before it or after.
	lexErr error
	depth  syntax.Depth
}

// Parse lexes, parses and checks src into a Program with node IDs
// assigned. A program that fails Check is an error like a syntax error.
func Parse(src string) (*Program, error) {
	prog, err := parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// parse is Parse without the check. A lexical error anywhere in src is
// the error, as if the whole text had been lexed first: when the parse
// stops early, the rest of the text is lexed for one.
func parse(src string) (*Program, error) {
	p := &Parser{lx: lexer{syntax.NewScanner(src)}}
	p.advance()
	prog, err := p.parseProgram()
	for p.lexErr == nil && !p.at(TokEOF) {
		p.advance()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	AssignIDs(prog)
	return prog, nil
}

// MustParse parses src and panics on error; for tests and embedded
// benchmark sources that are known to be valid.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// lex returns the lexer's next token, or EOF from the first lexical error
// on.
func (p *Parser) lex() Token {
	if p.lexErr == nil {
		t, err := p.lx.next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return Token{Kind: TokEOF}
}

// advance moves to the next token.
func (p *Parser) advance() {
	if p.peeked {
		p.tok, p.peeked = p.ahead, false
		return
	}
	p.tok = p.lex()
}

// peek returns the token after the current one without consuming either.
func (p *Parser) peek() Token {
	if !p.peeked {
		p.ahead, p.peeked = p.lex(), true
	}
	return p.ahead
}

func (p *Parser) cur() Token  { return p.tok }
func (p *Parser) next() Token { t := p.tok; p.advance(); return t }

func (p *Parser) at(k TokKind) bool { return p.tok.Kind == k }

func (p *Parser) accept(k TokKind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return Token{}, p.errorf("expected %s, found %s", k, p.cur())
}

func (p *Parser) errorf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

func isTypeTok(k TokKind) bool {
	switch k {
	case TokKwInt, TokKwFloat, TokKwDouble, TokKwVoid, TokKwBool, TokKwConst:
		return true
	}
	return false
}

// parseType parses ['const'] basetype ['*'].
func (p *Parser) parseType() (Type, error) {
	var t Type
	if p.accept(TokKwConst) {
		t.Const = true
	}
	switch p.cur().Kind {
	case TokKwInt:
		t.Kind = Int
	case TokKwFloat:
		t.Kind = Float
	case TokKwDouble:
		t.Kind = Double
	case TokKwVoid:
		t.Kind = Void
	case TokKwBool:
		t.Kind = Bool
	default:
		return t, p.errorf("expected type, found %s", p.cur())
	}
	p.next()
	if p.accept(TokStar) {
		t.Ptr = true
	}
	return t, nil
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	prog.pos = p.cur().Pos
	for !p.at(TokEOF) {
		f, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, f)
	}
	return prog, nil
}

func (p *Parser) parseFunc() (*FuncDecl, error) {
	start := p.cur().Pos
	ret, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	f := &FuncDecl{Ret: ret, Name: name.Lit}
	f.pos = start
	if !p.at(TokRParen) {
		for {
			param, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			f.Params = append(f.Params, param)
			if !p.accept(TokComma) {
				break
			}
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *Parser) parseParam() (*Param, error) {
	start := p.cur().Pos
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	// Array-style parameter "double a[]" is pointer sugar.
	if p.accept(TokLBracket) {
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		t.Ptr = true
	}
	prm := &Param{Type: t, Name: name.Lit}
	prm.pos = start
	return prm, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	start, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{}
	b.pos = start.Pos
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, p.errorf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
	p.next() // consume '}'
	return b, nil
}

// parseStmt parses one statement. Consecutive pragmas are collected and
// attached to a following loop; pragmas not followed by a loop become
// PragmaStmt nodes.
func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.depth.Enter(p.cur().Pos); err != nil {
		return nil, err
	}
	defer p.depth.Leave()
	if p.at(TokPragma) {
		var pragmas []string
		firstPos := p.cur().Pos
		for p.at(TokPragma) {
			pragmas = append(pragmas, p.next().Lit)
		}
		switch p.cur().Kind {
		case TokKwFor, TokKwWhile:
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			switch loop := s.(type) {
			case *ForStmt:
				loop.Pragmas = append(pragmas, loop.Pragmas...)
			case *WhileStmt:
				loop.Pragmas = append(pragmas, loop.Pragmas...)
			}
			return s, nil
		default:
			if len(pragmas) == 1 {
				ps := &PragmaStmt{Text: pragmas[0]}
				ps.pos = firstPos
				return ps, nil
			}
			// Multiple free-standing pragmas: keep them as one block-less
			// sequence by re-queuing all but the first.
			b := &Block{}
			b.pos = firstPos
			for _, text := range pragmas {
				ps := &PragmaStmt{Text: text}
				ps.pos = firstPos
				b.Stmts = append(b.Stmts, ps)
			}
			return b, nil
		}
	}

	switch p.cur().Kind {
	case TokLBrace:
		return p.parseBlock()
	case TokKwFor:
		return p.parseFor()
	case TokKwWhile:
		return p.parseWhile()
	case TokKwIf:
		return p.parseIf()
	case TokKwReturn:
		start := p.next().Pos
		rs := &ReturnStmt{}
		rs.pos = start
		if !p.at(TokSemi) {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.X = x
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return rs, nil
	case TokKwBreak:
		start := p.next().Pos
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		bs := &BreakStmt{}
		bs.pos = start
		return bs, nil
	case TokKwContinue:
		start := p.next().Pos
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		cs := &ContinueStmt{}
		cs.pos = start
		return cs, nil
	case TokSemi:
		p.next()
		return nil, nil
	}
	if isTypeTok(p.cur().Kind) {
		d, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return d, nil
	}
	// Expression statement.
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	es := &ExprStmt{X: x}
	es.pos = exprPos(x)
	return es, nil
}

func exprPos(e Expr) Pos {
	if e == nil {
		return Pos{}
	}
	return e.NodePos()
}

// parseDecl parses "type name [ '[' expr ']' ] [ '=' expr ]" without the
// trailing semicolon (shared by statements and for-inits).
func (p *Parser) parseDecl() (*DeclStmt, error) {
	start := p.cur().Pos
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Type: t, Name: name.Lit}
	d.pos = start
	if p.accept(TokLBracket) {
		n, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.ArrayLen = n
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
	}
	if p.accept(TokAssign) {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	return d, nil
}

func (p *Parser) parseFor() (*ForStmt, error) {
	start := p.next().Pos // 'for'
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	fs := &ForStmt{}
	fs.pos = start
	if !p.at(TokSemi) {
		if isTypeTok(p.cur().Kind) {
			d, err := p.parseDecl()
			if err != nil {
				return nil, err
			}
			fs.Init = d
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			es := &ExprStmt{X: x}
			es.pos = exprPos(x)
			fs.Init = es
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if !p.at(TokSemi) {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Cond = cond
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if !p.at(TokRParen) {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Post = post
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseLoopBody()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	return fs, nil
}

func (p *Parser) parseWhile() (*WhileStmt, error) {
	start := p.next().Pos // 'while'
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseLoopBody()
	if err != nil {
		return nil, err
	}
	ws := &WhileStmt{Cond: cond, Body: body}
	ws.pos = start
	return ws, nil
}

// parseLoopBody parses a block, or a single statement wrapped in a block.
func (p *Parser) parseLoopBody() (*Block, error) {
	if p.at(TokLBrace) {
		return p.parseBlock()
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	b := &Block{}
	if s != nil {
		b.pos = s.NodePos()
		b.Stmts = []Stmt{s}
	}
	return b, nil
}

func (p *Parser) parseIf() (*IfStmt, error) {
	start := p.next().Pos // 'if'
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	then, err := p.parseLoopBody()
	if err != nil {
		return nil, err
	}
	is := &IfStmt{Cond: cond, Then: then}
	is.pos = start
	if p.accept(TokKwElse) {
		if p.at(TokKwIf) {
			elseIf, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			is.Else = elseIf
		} else {
			blk, err := p.parseLoopBody()
			if err != nil {
				return nil, err
			}
			is.Else = blk
		}
	}
	return is, nil
}

// Expression parsing: precedence climbing with assignment at the bottom.

func (p *Parser) parseExpr() (Expr, error) {
	if err := p.depth.Enter(p.cur().Pos); err != nil {
		return nil, err
	}
	defer p.depth.Leave()
	return p.parseAssign()
}

func isAssignOp(k TokKind) bool {
	switch k {
	case TokAssign, TokPlusEq, TokMinusEq, TokStarEq, TokSlashEq:
		return true
	}
	return false
}

func (p *Parser) parseAssign() (Expr, error) {
	lhs, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if isAssignOp(p.cur().Kind) {
		switch lhs.(type) {
		case *Ident, *IndexExpr:
		default:
			return nil, p.errorf("invalid assignment target %T", lhs)
		}
		op := p.next().Kind
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		a := &AssignExpr{Op: op, LHS: lhs, RHS: rhs}
		a.pos = exprPos(lhs)
		return a, nil
	}
	return lhs, nil
}

func (p *Parser) parseBinaryLevel(ops []TokKind, sub func() (Expr, error)) (Expr, error) {
	l, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		match := false
		for _, op := range ops {
			if p.at(op) {
				match = true
				break
			}
		}
		if !match {
			return l, nil
		}
		op := p.next().Kind
		r, err := sub()
		if err != nil {
			return nil, err
		}
		b := &BinaryExpr{Op: op, L: l, R: r}
		b.pos = exprPos(l)
		l = b
	}
}

func (p *Parser) parseOr() (Expr, error) {
	return p.parseBinaryLevel([]TokKind{TokOrOr}, p.parseAnd)
}

func (p *Parser) parseAnd() (Expr, error) {
	return p.parseBinaryLevel([]TokKind{TokAndAnd}, p.parseEquality)
}

func (p *Parser) parseEquality() (Expr, error) {
	return p.parseBinaryLevel([]TokKind{TokEqEq, TokNe}, p.parseRelational)
}

func (p *Parser) parseRelational() (Expr, error) {
	return p.parseBinaryLevel([]TokKind{TokLt, TokGt, TokLe, TokGe}, p.parseAdditive)
}

func (p *Parser) parseAdditive() (Expr, error) {
	return p.parseBinaryLevel([]TokKind{TokPlus, TokMinus}, p.parseMultiplicative)
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	return p.parseBinaryLevel([]TokKind{TokStar, TokSlash, TokPercent}, p.parseUnary)
}

func (p *Parser) parseUnary() (Expr, error) {
	if err := p.depth.Enter(p.cur().Pos); err != nil {
		return nil, err
	}
	defer p.depth.Leave()
	switch p.cur().Kind {
	case TokMinus, TokNot:
		start := p.cur().Pos
		op := p.next().Kind
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		u := &UnaryExpr{Op: op, X: x}
		u.pos = start
		return u, nil
	case TokLParen:
		// Possible cast: '(' type ')' unary.
		if isTypeTok(p.peek().Kind) {
			start := p.next().Pos // '('
			t, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			c := &CastExpr{To: t, X: x}
			c.pos = start
			return c, nil
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case TokLBracket:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			ie := &IndexExpr{Base: x, Index: idx}
			ie.pos = exprPos(x)
			x = ie
		case TokPlusPlus, TokMinusMinus:
			op := p.next().Kind
			switch x.(type) {
			case *Ident, *IndexExpr:
			default:
				return nil, p.errorf("invalid ++/-- target %T", x)
			}
			id := &IncDecExpr{Op: op, X: x}
			id.pos = exprPos(x)
			x = id
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokIntLit:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q: %v", t.Lit, err)
		}
		il := &IntLit{Val: v, Text: t.Lit}
		il.pos = t.Pos
		return il, nil
	case TokFloatLit:
		p.next()
		text := t.Lit
		single := strings.HasSuffix(text, "f") || strings.HasSuffix(text, "F")
		numText := strings.TrimRight(text, "fF")
		v, err := strconv.ParseFloat(numText, 64)
		if err != nil {
			return nil, p.errorf("bad float literal %q: %v", t.Lit, err)
		}
		fl := &FloatLit{Val: v, Text: text, Single: single}
		fl.pos = t.Pos
		return fl, nil
	case TokStringLit:
		p.next()
		sl := &StringLit{Val: t.Lit}
		sl.pos = t.Pos
		return sl, nil
	case TokKwTrue, TokKwFalse:
		p.next()
		bl := &BoolLit{Val: t.Kind == TokKwTrue}
		bl.pos = t.Pos
		return bl, nil
	case TokIdent:
		p.next()
		if p.at(TokLParen) {
			p.next()
			call := &CallExpr{Fun: t.Lit}
			call.pos = t.Pos
			if !p.at(TokRParen) {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(TokComma) {
						break
					}
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		id := &Ident{Name: t.Lit}
		id.pos = t.Pos
		return id, nil
	case TokLParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errorf("unexpected token %s in expression", t)
}
