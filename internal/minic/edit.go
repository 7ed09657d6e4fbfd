package minic

// AST surgery utilities used by the instrument/transform layer. All editors
// operate in place; callers should re-run AssignIDs (and rebuild query
// contexts) after structural changes.

// ReplaceStmt replaces old with new wherever old appears as a direct child
// statement under root (block entries, for-inits, if-elses). Returns true
// if a replacement happened.
func ReplaceStmt(root Node, old, new Stmt) bool {
	done := false
	Walk(root, func(n Node) bool {
		if done {
			return false
		}
		switch v := n.(type) {
		case *Block:
			for i, s := range v.Stmts {
				if s == old {
					v.Stmts[i] = new
					done = true
					return false
				}
			}
		case *ForStmt:
			if v.Init == old {
				v.Init = new
				done = true
				return false
			}
		case *IfStmt:
			if v.Else == old {
				v.Else = new
				done = true
				return false
			}
		}
		return true
	})
	return done
}

// InsertBefore inserts stmts immediately before target in its enclosing
// block. Returns false if target is not a direct block entry.
func InsertBefore(root Node, target Stmt, stmts ...Stmt) bool {
	done := false
	Walk(root, func(n Node) bool {
		if done {
			return false
		}
		if b, ok := n.(*Block); ok {
			for i, s := range b.Stmts {
				if s == target {
					rest := append([]Stmt{}, b.Stmts[i:]...)
					b.Stmts = append(b.Stmts[:i], append(stmts, rest...)...)
					done = true
					return false
				}
			}
		}
		return true
	})
	return done
}

// InsertAfter inserts stmts immediately after target in its enclosing
// block. Returns false if target is not a direct block entry.
func InsertAfter(root Node, target Stmt, stmts ...Stmt) bool {
	done := false
	Walk(root, func(n Node) bool {
		if done {
			return false
		}
		if b, ok := n.(*Block); ok {
			for i, s := range b.Stmts {
				if s == target {
					rest := append([]Stmt{}, b.Stmts[i+1:]...)
					b.Stmts = append(b.Stmts[:i+1], append(stmts, rest...)...)
					done = true
					return false
				}
			}
		}
		return true
	})
	return done
}

// RewriteExprs applies fn to every expression slot under root, bottom-up:
// children are rewritten before their parents, and fn's non-nil result
// replaces the slot. Used by transforms such as single-precision literal
// demotion and math-function substitution.
func RewriteExprs(root Node, fn func(Expr) Expr) {
	var rewrite func(e Expr) Expr
	rewrite = func(e Expr) Expr {
		if e == nil {
			return nil
		}
		switch v := e.(type) {
		case *UnaryExpr:
			v.X = rewrite(v.X)
		case *BinaryExpr:
			v.L = rewrite(v.L)
			v.R = rewrite(v.R)
		case *AssignExpr:
			v.LHS = rewrite(v.LHS)
			v.RHS = rewrite(v.RHS)
		case *IncDecExpr:
			v.X = rewrite(v.X)
		case *IndexExpr:
			v.Base = rewrite(v.Base)
			v.Index = rewrite(v.Index)
		case *CallExpr:
			for i := range v.Args {
				v.Args[i] = rewrite(v.Args[i])
			}
		case *CastExpr:
			v.X = rewrite(v.X)
		}
		if out := fn(e); out != nil {
			return out
		}
		return e
	}
	// Each statement kind rewrites exactly the expression slots it owns
	// directly; nested statements (for-inits, block entries) are rewritten
	// on their own visit, so fn is applied exactly once per expression.
	Walk(root, func(m Node) bool {
		switch v := m.(type) {
		case *DeclStmt:
			if v.ArrayLen != nil {
				v.ArrayLen = rewrite(v.ArrayLen)
			}
			if v.Init != nil {
				v.Init = rewrite(v.Init)
			}
			return false
		case *ExprStmt:
			v.X = rewrite(v.X)
			return false
		case *ForStmt:
			if v.Cond != nil {
				v.Cond = rewrite(v.Cond)
			}
			if v.Post != nil {
				v.Post = rewrite(v.Post)
			}
			return true // init and body handled as children
		case *WhileStmt:
			v.Cond = rewrite(v.Cond)
			return true
		case *IfStmt:
			v.Cond = rewrite(v.Cond)
			return true
		case *ReturnStmt:
			if v.X != nil {
				v.X = rewrite(v.X)
			}
			return false
		case Expr:
			return false // expression subtrees are rewritten by their owners
		}
		return true
	})
}
