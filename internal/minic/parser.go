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
//
// Every node comes from the parser's slabs, the cloner's kind, sized by a
// counting pass over the text before the parse, so a parse costs one
// allocation per node kind present, not one per node. A list — a block's
// statements, a call's arguments, a function's parameters, a loop's
// pragmas, the program's functions — is collected on its stack while it
// is parsed and cut from its slot slab at its exact length when it ends,
// an empty one left nil.
type Parser struct {
	lx     lexer
	tok    Token
	ahead  Token
	peeked bool
	depth  syntax.Depth
	slabs
	stack struct {
		stmts   []Stmt
		args    []Expr
		params  []*Param
		pragmas []string
		funcs   []*FuncDecl
	}
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
// the error, before any syntax error: the counting pass lexes the whole
// text first.
func parse(src string) (*Program, error) {
	p := &Parser{}
	if err := p.count(src); err != nil {
		return nil, err
	}
	return p.build(src)
}

// build parses src, which count has lexed without an error, into a
// Program with node IDs assigned.
func (p *Parser) build(src string) (*Program, error) {
	p.lx = lexer{syntax.NewScanner(src)}
	p.stack.stmts = make([]Stmt, 0, p.stmtSlots.n)
	p.stack.args = make([]Expr, 0, p.argSlots.n)
	p.stack.params = make([]*Param, 0, p.paramSlots.n)
	p.stack.pragmas = make([]string, 0, p.pragmaSlots.n+p.pragmas.n)
	p.stack.funcs = make([]*FuncDecl, 0, p.funcSlots.n)
	p.advance()
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	AssignIDs(prog)
	return prog, nil
}

// cut returns the list collected on stack from mark on, cut from slots at
// its exact length (nil when it is empty), and pops it.
func cut[T any](stack *[]T, mark int, slots *slab[T]) []T {
	list := (*stack)[mark:]
	if len(list) == 0 {
		return nil
	}
	out := slots.take(len(list))
	copy(out, list)
	*stack = (*stack)[:mark]
	return out
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

// lex returns the lexer's next token. The counting pass lexed the whole
// text without an error, so there is none here.
func (p *Parser) lex() Token {
	t, _ := p.lx.next()
	return t
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
		p.stack.funcs = append(p.stack.funcs, f)
	}
	prog.Funcs = cut(&p.stack.funcs, 0, &p.funcSlots)
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
	f := FuncDecl{Ret: ret, Name: name.Lit}
	f.pos = start
	if !p.at(TokRParen) {
		for {
			param, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			p.stack.params = append(p.stack.params, param)
			if !p.accept(TokComma) {
				break
			}
		}
	}
	f.Params = cut(&p.stack.params, 0, &p.paramSlots)
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return p.funcs.copy(&f), nil
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
	return p.params.copy(&Param{base: base{pos: start}, Type: t, Name: name.Lit}), nil
}

func (p *Parser) parseBlock() (*Block, error) {
	start, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	mark := len(p.stack.stmts)
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, p.errorf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			p.stack.stmts = append(p.stack.stmts, s)
		}
	}
	p.next() // consume '}'
	return p.blocks.copy(&Block{base: base{pos: start.Pos}, Stmts: cut(&p.stack.stmts, mark, &p.stmtSlots)}), nil
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
		firstPos := p.cur().Pos
		for p.at(TokPragma) {
			p.stack.pragmas = append(p.stack.pragmas, p.next().Lit)
		}
		switch p.cur().Kind {
		case TokKwFor, TokKwWhile:
			pragmas := cut(&p.stack.pragmas, 0, &p.pragmaSlots)
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			switch loop := s.(type) {
			case *ForStmt:
				loop.Pragmas = pragmas
			case *WhileStmt:
				loop.Pragmas = pragmas
			}
			return s, nil
		default:
			if len(p.stack.pragmas) == 1 {
				ps := p.pragmas.copy(&PragmaStmt{base: base{pos: firstPos}, Text: p.stack.pragmas[0]})
				p.stack.pragmas = p.stack.pragmas[:0]
				return ps, nil
			}
			// Multiple free-standing pragmas: keep them as one block-less
			// sequence by re-queuing all but the first.
			mark := len(p.stack.stmts)
			for _, text := range p.stack.pragmas {
				p.stack.stmts = append(p.stack.stmts, p.pragmas.copy(&PragmaStmt{base: base{pos: firstPos}, Text: text}))
			}
			p.stack.pragmas = p.stack.pragmas[:0]
			return p.blocks.copy(&Block{base: base{pos: firstPos}, Stmts: cut(&p.stack.stmts, mark, &p.stmtSlots)}), nil
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
		rs := ReturnStmt{base: base{pos: p.next().Pos}}
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
		return p.returns.copy(&rs), nil
	case TokKwBreak:
		start := p.next().Pos
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return p.breaks.copy(&BreakStmt{base{pos: start}}), nil
	case TokKwContinue:
		start := p.next().Pos
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return p.continues.copy(&ContinueStmt{base{pos: start}}), nil
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
	return p.exprStmts.copy(&ExprStmt{base: base{pos: exprPos(x)}, X: x}), nil
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
	d := DeclStmt{base: base{pos: start}, Type: t, Name: name.Lit}
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
	return p.decls.copy(&d), nil
}

func (p *Parser) parseFor() (*ForStmt, error) {
	start := p.next().Pos // 'for'
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	fs := ForStmt{base: base{pos: start}}
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
			fs.Init = p.exprStmts.copy(&ExprStmt{base: base{pos: exprPos(x)}, X: x})
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
	return p.fors.copy(&fs), nil
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
	return p.whiles.copy(&WhileStmt{base: base{pos: start}, Cond: cond, Body: body}), nil
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
	var b Block
	if s != nil {
		b.pos = s.NodePos()
		b.Stmts = p.stmtSlots.take(1)
		b.Stmts[0] = s
	}
	return p.blocks.copy(&b), nil
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
	is := IfStmt{base: base{pos: start}, Cond: cond, Then: then}
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
	return p.ifs.copy(&is), nil
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
		return p.assigns.copy(&AssignExpr{base: base{pos: exprPos(lhs)}, Op: op, LHS: lhs, RHS: rhs}), nil
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
		l = p.binaries.copy(&BinaryExpr{base: base{pos: exprPos(l)}, Op: op, L: l, R: r})
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
		return p.unaries.copy(&UnaryExpr{base: base{pos: start}, Op: op, X: x}), nil
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
			return p.casts.copy(&CastExpr{base: base{pos: start}, To: t, X: x}), nil
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
			x = p.indexes.copy(&IndexExpr{base: base{pos: exprPos(x)}, Base: x, Index: idx})
		case TokPlusPlus, TokMinusMinus:
			op := p.next().Kind
			switch x.(type) {
			case *Ident, *IndexExpr:
			default:
				return nil, p.errorf("invalid ++/-- target %T", x)
			}
			x = p.incDecs.copy(&IncDecExpr{base: base{pos: exprPos(x)}, Op: op, X: x})
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
		return p.ints.copy(&IntLit{base: base{pos: t.Pos}, Val: v, Text: t.Lit}), nil
	case TokFloatLit:
		p.next()
		text := t.Lit
		single := strings.HasSuffix(text, "f") || strings.HasSuffix(text, "F")
		numText := strings.TrimRight(text, "fF")
		v, err := strconv.ParseFloat(numText, 64)
		if err != nil {
			return nil, p.errorf("bad float literal %q: %v", t.Lit, err)
		}
		return p.floats.copy(&FloatLit{base: base{pos: t.Pos}, Val: v, Text: text, Single: single}), nil
	case TokStringLit:
		p.next()
		return p.strs.copy(&StringLit{base: base{pos: t.Pos}, Val: t.Lit}), nil
	case TokKwTrue, TokKwFalse:
		p.next()
		return p.bools.copy(&BoolLit{base: base{pos: t.Pos}, Val: t.Kind == TokKwTrue}), nil
	case TokIdent:
		p.next()
		if p.at(TokLParen) {
			p.next()
			mark := len(p.stack.args)
			if !p.at(TokRParen) {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					p.stack.args = append(p.stack.args, a)
					if !p.accept(TokComma) {
						break
					}
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return p.calls.copy(&CallExpr{base: base{pos: t.Pos}, Fun: t.Lit, Args: cut(&p.stack.args, mark, &p.argSlots)}), nil
		}
		return p.idents.copy(&Ident{base: base{pos: t.Pos}, Name: t.Lit}), nil
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
