package minic

import "psaflow/internal/syntax"

// count lexes src once, keeping no token, and sets each slab's n to what
// parsing src will take from it. It reads each token with the one or two
// before it: an identifier is a call when '(' follows it, a declared name
// when a type precedes it; a '-' after an operand is binary; a '*' after a
// type is a pointer's; a ';' is an expression statement's unless a
// declaration, return, break or continue takes it, it is empty, or it is
// a for header's. For a well-formed program every count is exact, so the
// slabs hold nothing to spare for the AST to keep alive. Malformed text
// counts whatever it counts: a count decides how often a slab allocates,
// never what the parse builds. count returns the first lexical error in
// src.
func (s *slabs) count(src string) error {
	lx := lexer{syntax.NewScanner(src)}
	var (
		depth, parens, brackets int // braces, parentheses and brackets open

		header   = -1 // parens outside the open for, while or if header, or -1
		body     bool // prev closed a header: a body follows
		initSemi bool // the open header has had its first ';'
		initDecl bool // the open header's init is a declaration
		length   = -1 // brackets outside an array declaration's length, or -1

		prev, prev2 TokKind // the two tokens before
		prevType    bool    // prev ends a type: a basic type, or the '*' after one
		prevDecl    bool    // prev is a declared name, or the ']' after its length
		prevOperand bool    // prev ends an operand
		callParen   bool    // prev is a call's '('

		pragmaRun int // pragmas since the last other token
		semis     int // ';' that end a statement
		takers    int // statements that end in a ';' of their own
	)
	for {
		t, err := lx.next()
		if err != nil {
			return err
		}
		k := t.Kind
		// The identifier before: a function or a parameter outside bodies,
		// inside them a call or a name, unless it was declared.
		if prev == TokIdent {
			switch {
			case depth <= 0 && k == TokLParen:
				s.funcs.n++
				s.funcSlots.n++
			case depth <= 0:
				s.params.n++
				s.paramSlots.n++
			case prevDecl:
			case k == TokLParen:
				s.calls.n++
				s.argSlots.n++
			default:
				s.idents.n++
			}
		}
		if callParen && k == TokRParen {
			s.argSlots.n-- // f() has no argument
		}
		// A body that is not a block, and an else that is neither a block
		// nor an if, is wrapped in a block of its own.
		if (body && k != TokLBrace) || (prev == TokKwElse && k != TokLBrace && k != TokKwIf) {
			s.blocks.n++
		}
		// Pragmas before a loop are its list; any others are statements, a
		// run of them one block of them.
		if pragmaRun > 0 && k != TokPragma {
			if k == TokKwFor || k == TokKwWhile {
				s.pragmaSlots.n += pragmaRun
			} else {
				s.pragmas.n += pragmaRun
				s.stmtSlots.n++
				if pragmaRun > 1 {
					s.blocks.n++
					s.stmtSlots.n += pragmaRun
				}
			}
			pragmaRun = 0
		}
		isType, decl, operand := false, false, false
		callParen = false
		switch k {
		case TokEOF:
			// Every ';' no other statement takes is an expression statement's.
			n := max(0, semis-takers)
			s.exprStmts.n += n
			s.stmtSlots.n += n
			return nil
		case TokIdent:
			decl, operand = prevType, true
			if decl && depth > 0 {
				s.decls.n++
				if header >= 0 {
					initDecl = true // a for's init is no slot
				} else {
					s.stmtSlots.n++
					takers++
				}
			}
		case TokKwInt, TokKwFloat, TokKwDouble, TokKwVoid, TokKwBool, TokKwConst:
			isType = k != TokKwConst
			if prev == TokLParen && prev2 != TokIdent && prev2 != TokKwFor && prev2 != TokKwWhile && prev2 != TokKwIf {
				s.casts.n++
			}
		case TokIntLit:
			s.ints.n++
			operand = true
		case TokFloatLit:
			s.floats.n++
			operand = true
		case TokStringLit:
			s.strs.n++
			operand = true
		case TokKwTrue, TokKwFalse:
			s.bools.n++
			operand = true
		case TokPragma:
			pragmaRun++
		case TokKwFor, TokKwWhile, TokKwIf, TokKwReturn, TokKwBreak, TokKwContinue:
			switch k {
			case TokKwFor:
				s.fors.n++
			case TokKwWhile:
				s.whiles.n++
			case TokKwIf:
				s.ifs.n++
			case TokKwReturn:
				s.returns.n++
				takers++
			case TokKwBreak:
				s.breaks.n++
				takers++
			case TokKwContinue:
				s.continues.n++
				takers++
			}
			if k != TokKwIf || prev != TokKwElse {
				s.stmtSlots.n++ // else if is no slot
			}
		case TokLBrace:
			s.blocks.n++
			if depth > 0 && !body && prev != TokKwElse {
				s.stmtSlots.n++ // a block in a block
			}
			depth++
		case TokRBrace:
			depth--
		case TokLParen:
			if prev == TokKwFor || prev == TokKwWhile || prev == TokKwIf {
				header, initSemi, initDecl = parens, false, false
			}
			callParen = prev == TokIdent && depth > 0 && !prevDecl
			parens++
		case TokRParen:
			parens--
			operand = !prevType // the ')' of a cast ends no operand
		case TokLBracket:
			if depth > 0 && prevDecl {
				length = brackets
			} else if depth > 0 {
				s.indexes.n++
			}
			brackets++
		case TokRBracket:
			brackets--
			operand = true
			if brackets == length {
				decl, length = true, -1 // an '=' after it starts the initializer
			}
		case TokComma:
			if depth > 0 {
				s.argSlots.n++
			}
		case TokSemi:
			switch {
			case header >= 0:
				// A for's init is an expression statement unless it is
				// empty or a declaration.
				if !initSemi && prev != TokLParen && !initDecl {
					s.exprStmts.n++
				}
				initSemi = true
			case depth > 0 && !body && prev != TokSemi && prev != TokLBrace && prev != TokRBrace &&
				prev != TokKwElse && prev != TokPragma:
				semis++ // any other ';' is an empty statement
			}
		case TokAssign, TokPlusEq, TokMinusEq, TokStarEq, TokSlashEq:
			if k != TokAssign || !prevDecl {
				s.assigns.n++
			}
		case TokStar:
			isType = prevType
			if !prevType {
				s.binaries.n++
			}
		case TokMinus:
			if prevOperand {
				s.binaries.n++
			} else {
				s.unaries.n++
			}
		case TokNot:
			s.unaries.n++
		case TokPlus, TokSlash, TokPercent, TokLt, TokGt, TokLe, TokGe, TokEqEq, TokNe, TokAndAnd, TokOrOr:
			s.binaries.n++
		case TokPlusPlus, TokMinusMinus:
			s.incDecs.n++
			operand = true
		}
		body = k == TokRParen && header >= 0 && parens == header
		if body {
			header = -1
		}
		prev2, prev = prev, k
		prevType, prevDecl, prevOperand = isType, decl, operand
	}
}
