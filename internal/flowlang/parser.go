package flowlang

import (
	"fmt"
	"strconv"

	"psaflow/internal/syntax"
)

// ParseError describes a syntax error with its position.
type ParseError = syntax.ParseError

// Parser is a recursive-descent parser for the flow DSL. It pulls its
// tokens from the lexer as it goes, like MiniC's; the grammar needs no
// token after the current one.
type Parser struct {
	lx  lexer
	tok Token
	// lexErr is the first lexical error. The lexer stops there, and the
	// parser reads EOF after it; the error wins over any syntax error,
	// before it or after.
	lexErr error
	depth  syntax.Depth
}

// Parse lexes and parses src into a File. A lexical error anywhere in
// src is the error, as if the whole text had been lexed first: when the
// parse stops early, the rest of the text is lexed for one.
func Parse(src string) (*File, error) {
	p := &Parser{lx: lexer{syntax.NewScanner(src)}}
	p.advance()
	f, err := p.parseFile()
	for p.lexErr == nil && !p.at(TokEOF) {
		p.advance()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return f, err
}

// advance moves to the lexer's next token, or to EOF from the first
// lexical error on.
func (p *Parser) advance() {
	if p.lexErr == nil {
		t, err := p.lx.next()
		if err == nil {
			p.tok = t
			return
		}
		p.lexErr = err
	}
	p.tok = Token{Kind: TokEOF}
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

// parseFile parses { def } flow EOF.
func (p *Parser) parseFile() (*File, error) {
	f := &File{}
	for p.at(TokKwDef) {
		d, err := p.parseDef()
		if err != nil {
			return nil, err
		}
		f.Defs = append(f.Defs, d)
	}
	if !p.at(TokKwFlow) {
		return nil, p.errorf("expected flow declaration, found %s", p.cur())
	}
	fl, err := p.parseFlow()
	if err != nil {
		return nil, err
	}
	f.Flow = fl
	if !p.at(TokEOF) {
		return nil, p.errorf("expected EOF after flow declaration, found %s", p.cur())
	}
	return f, nil
}

// parseDef parses `def "name" { stmts }`.
func (p *Parser) parseDef() (*DefDecl, error) {
	kw := p.next() // def
	name, err := p.expect(TokString)
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &DefDecl{KwPos: kw.Pos, Name: name.Lit, NamePos: name.Pos, Body: body}, nil
}

// parseFlow parses `flow "name" { settings stmts }`.
func (p *Parser) parseFlow() (*FlowDecl, error) {
	kw := p.next() // flow
	name, err := p.expect(TokString)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	fl := &FlowDecl{KwPos: kw.Pos, Name: name.Lit, NamePos: name.Pos}
	for p.at(TokKwBudget) || p.at(TokKwFaults) || p.at(TokKwRetry) {
		set, err := p.parseSetting()
		if err != nil {
			return nil, err
		}
		fl.Settings = append(fl.Settings, set)
	}
	for !p.at(TokRBrace) {
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		fl.Body = append(fl.Body, st)
	}
	p.next() // }
	return fl, nil
}

// parseSetting parses one flow-level setting.
func (p *Parser) parseSetting() (*Setting, error) {
	kw := p.next()
	switch kw.Kind {
	case TokKwBudget:
		num, err := p.expect(TokNumber)
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseFloat(num.Lit, 64)
		if err != nil {
			return nil, &ParseError{Pos: num.Pos, Msg: fmt.Sprintf("invalid number %q", num.Lit)}
		}
		return &Setting{KwPos: kw.Pos, Kind: SetBudget, Value: v, ValuePos: num.Pos}, nil
	case TokKwFaults:
		str, err := p.expect(TokString)
		if err != nil {
			return nil, err
		}
		return &Setting{KwPos: kw.Pos, Kind: SetFaults, Text: str.Lit, TextPos: str.Pos}, nil
	default: // TokKwRetry
		set := &Setting{KwPos: kw.Pos, Kind: SetRetry}
		for p.at(TokIdent) || p.at(TokKwBudget) {
			key := p.next()
			if _, err := p.expect(TokAssign); err != nil {
				return nil, err
			}
			num, err := p.expect(TokNumber)
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(num.Lit)
			if err != nil {
				return nil, &ParseError{Pos: num.Pos, Msg: fmt.Sprintf("retry %s wants an integer, found %q", key.Lit, num.Lit)}
			}
			switch key.Lit {
			case "attempts":
				set.Attempts, set.HasAttempts = n, true
			case "budget":
				set.RetryBudget, set.HasBudget = n, true
			default:
				return nil, &ParseError{Pos: key.Pos, Msg: fmt.Sprintf("unknown retry key %q (want attempts or budget)", key.Lit)}
			}
		}
		if !set.HasAttempts && !set.HasBudget {
			return nil, &ParseError{Pos: kw.Pos, Msg: "retry needs at least one of attempts=N, budget=N"}
		}
		return set, nil
	}
}

// parseBlock parses `{ stmts }`.
func (p *Parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	var body []Stmt
	for !p.at(TokRBrace) {
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body = append(body, st)
	}
	p.next() // }
	return body, nil
}

// parseStmt parses one statement: task, branch, when, or use.
func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.depth.Enter(p.cur().Pos); err != nil {
		return nil, err
	}
	defer p.depth.Leave()
	switch p.cur().Kind {
	case TokKwTask:
		return p.parseTask()
	case TokKwBranch:
		return p.parseBranch()
	case TokKwWhen:
		return p.parseWhen()
	case TokKwUse:
		kw := p.next()
		name, err := p.expect(TokString)
		if err != nil {
			return nil, err
		}
		return &UseStmt{KwPos: kw.Pos, Name: name.Lit, NamePos: name.Pos}, nil
	}
	return nil, p.errorf("expected a statement (task, branch, when, use), found %s", p.cur())
}

// parseTask parses `task name [ "(" var ")" ]`.
func (p *Parser) parseTask() (Stmt, error) {
	kw := p.next() // task
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	st := &TaskStmt{KwPos: kw.Pos, Name: name.Lit, NamePos: name.Pos}
	if p.accept(TokLParen) {
		arg, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		st.Arg, st.ArgPos = arg.Lit, arg.Pos
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// parseWhen parses `when [!]cond { stmts }`.
func (p *Parser) parseWhen() (Stmt, error) {
	kw := p.next() // when
	var cond Cond
	if p.at(TokNot) {
		not := p.next()
		cond.Neg, cond.NotPos = true, not.Pos
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	cond.Name, cond.NamePos = name.Lit, name.Pos
	if p.accept(TokDot) {
		prop, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		cond.Prop, cond.PropPos = prop.Lit, prop.Pos
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &WhenStmt{KwPos: kw.Pos, Cond: cond, Body: body}, nil
}

// parseBranch parses a branch point:
//
//	branch "A" strategy auto [gated] [revisions N] { arms }
func (p *Parser) parseBranch() (Stmt, error) {
	kw := p.next() // branch
	name, err := p.expect(TokString)
	if err != nil {
		return nil, err
	}
	st := &BranchStmt{KwPos: kw.Pos, Name: name.Lit, NamePos: name.Pos}
	if _, err := p.expect(TokKwStrategy); err != nil {
		return nil, err
	}
	strat, err := p.parseStrategy()
	if err != nil {
		return nil, err
	}
	st.Strategy = strat
	for {
		switch {
		case p.at(TokKwGated):
			p.next()
			st.Gated = true
			continue
		case p.at(TokKwRevisions):
			p.next()
			num, err := p.expect(TokNumber)
			if err != nil {
				return nil, err
			}
			n, aerr := strconv.Atoi(num.Lit)
			if aerr != nil {
				return nil, &ParseError{Pos: num.Pos, Msg: fmt.Sprintf("revisions wants an integer, found %q", num.Lit)}
			}
			st.Revisions, st.HasRev, st.RevPos = n, true, num.Pos
			continue
		}
		break
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	for !p.at(TokRBrace) {
		arm, err := p.parseArm()
		if err != nil {
			return nil, err
		}
		st.Arms = append(st.Arms, arm)
	}
	p.next() // }
	return st, nil
}

// parseStrategy parses `name [ "(" key=num {"," key=num} ")" ]`.
func (p *Parser) parseStrategy() (Strategy, error) {
	name, err := p.expect(TokIdent)
	if err != nil {
		return Strategy{}, err
	}
	strat := Strategy{Pos: name.Pos, Name: name.Lit}
	if !p.accept(TokLParen) {
		return strat, nil
	}
	for {
		key, err := p.expect(TokIdent)
		if err != nil {
			return Strategy{}, err
		}
		if _, err := p.expect(TokAssign); err != nil {
			return Strategy{}, err
		}
		num, err := p.expect(TokNumber)
		if err != nil {
			return Strategy{}, err
		}
		v, perr := strconv.ParseFloat(num.Lit, 64)
		if perr != nil {
			return Strategy{}, &ParseError{Pos: num.Pos, Msg: fmt.Sprintf("invalid number %q", num.Lit)}
		}
		strat.Args = append(strat.Args, StrategyArg{Key: key.Lit, KeyPos: key.Pos, Val: v, ValPos: num.Pos})
		if p.accept(TokComma) {
			continue
		}
		break
	}
	if _, err := p.expect(TokRParen); err != nil {
		return Strategy{}, err
	}
	return strat, nil
}

// parseArm parses one branch alternative: an explicit path or a foreach.
func (p *Parser) parseArm() (BranchArm, error) {
	if err := p.depth.Enter(p.cur().Pos); err != nil {
		return nil, err
	}
	defer p.depth.Leave()
	switch p.cur().Kind {
	case TokKwPath:
		kw := p.next()
		name, err := p.expect(TokString)
		if err != nil {
			return nil, err
		}
		arm := &PathArm{KwPos: kw.Pos, Name: name.Lit, NamePos: name.Pos}
		if p.accept(TokKwAs) {
			fn, err := p.expect(TokString)
			if err != nil {
				return nil, err
			}
			arm.FlowName, arm.FlowNamePos = fn.Lit, fn.Pos
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		arm.Body = body
		return arm, nil
	case TokKwForeach:
		kw := p.next()
		v, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKwIn); err != nil {
			return nil, err
		}
		set, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ForeachArm{KwPos: kw.Pos, Var: v.Lit, VarPos: v.Pos, Set: set.Lit, SetPos: set.Pos, Body: body}, nil
	}
	return nil, p.errorf("expected a branch arm (path or foreach), found %s", p.cur())
}
