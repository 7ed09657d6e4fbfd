package minic

import "fmt"

// Clone returns a deep copy of the program. Node IDs are re-assigned so
// the clone is a fully independent AST, one a transform may renumber.
func (p *Program) Clone() *Program {
	cp := &Program{base: p.base}
	cp.Funcs = make([]*FuncDecl, len(p.Funcs))
	for i, f := range p.Funcs {
		cp.Funcs[i] = CloneFunc(f)
	}
	AssignIDs(cp)
	return cp
}

// Share returns a program with its own Funcs slice holding the same
// *FuncDecls: replacing a slot of either program leaves the other as it
// was, while a write inside a function is seen by both. The PSA-flow engine
// forks a design this way and copies a function before it writes to it.
func (p *Program) Share() *Program {
	return &Program{base: p.base, Funcs: append([]*FuncDecl(nil), p.Funcs...)}
}

// CloneFunc deep-copies a function. IDs are copied verbatim, so the copy
// can take the original's slot in a program without renumbering it.
func CloneFunc(f *FuncDecl) *FuncDecl {
	cf := &FuncDecl{base: f.base, Ret: f.Ret, Name: f.Name}
	cf.Params = make([]*Param, len(f.Params))
	for i, p := range f.Params {
		cp := *p
		cf.Params[i] = &cp
	}
	cf.Body = cloneBlock(f.Body)
	return cf
}

// CopyPath copies f down to loop for an edit that writes only loop's
// pragmas: the FuncDecl, each Block and IfStmt on the way, and loop itself
// with a Pragmas slice of its own. Everything else — the loop's header and
// body, every statement off the path — is shared with f. IDs are copied
// verbatim. It returns nil, nil when loop is not in f outside another loop.
func CopyPath(f *FuncDecl, loop Stmt) (*FuncDecl, Stmt) {
	body, cl := copyPathBlock(f.Body, loop)
	if cl == nil {
		return nil, nil
	}
	cf := *f
	cf.Body = body
	return &cf, cl
}

// copyPathBlock returns b copied down to loop and loop's copy, or nil, nil.
func copyPathBlock(b *Block, loop Stmt) (*Block, Stmt) {
	if b == nil {
		return nil, nil
	}
	for i, s := range b.Stmts {
		if cs, cl := copyPathStmt(s, loop); cl != nil {
			cb := &Block{base: b.base, Stmts: append([]Stmt(nil), b.Stmts...)}
			cb.Stmts[i] = cs
			return cb, cl
		}
	}
	return nil, nil
}

// copyPathStmt returns s copied down to loop and loop's copy, or nil, nil.
// It does not descend into loops.
func copyPathStmt(s, loop Stmt) (Stmt, Stmt) {
	switch v := s.(type) {
	case *ForStmt:
		if s == loop {
			c := *v
			c.Pragmas = append([]string(nil), v.Pragmas...)
			return &c, &c
		}
	case *WhileStmt:
		if s == loop {
			c := *v
			c.Pragmas = append([]string(nil), v.Pragmas...)
			return &c, &c
		}
	case *Block:
		return copyPathBlock(v, loop)
	case *IfStmt:
		if then, cl := copyPathBlock(v.Then, loop); cl != nil {
			c := *v
			c.Then = then
			return &c, cl
		}
		if els, cl := copyPathStmt(v.Else, loop); cl != nil {
			c := *v
			c.Else = els
			return &c, cl
		}
	}
	return nil, nil
}

func cloneBlock(b *Block) *Block {
	if b == nil {
		return nil
	}
	cb := &Block{base: b.base}
	cb.Stmts = make([]Stmt, len(b.Stmts))
	for i, s := range b.Stmts {
		cb.Stmts[i] = CloneStmt(s)
	}
	return cb
}

// CloneStmt deep-copies a statement. IDs are copied verbatim; call
// AssignIDsFrom on the enclosing function if fresh IDs are needed.
func CloneStmt(s Stmt) Stmt {
	switch v := s.(type) {
	case nil:
		return nil
	case *Block:
		return cloneBlock(v)
	case *DeclStmt:
		return &DeclStmt{base: v.base, Type: v.Type, Name: v.Name,
			ArrayLen: CloneExpr(v.ArrayLen), Init: CloneExpr(v.Init)}
	case *ExprStmt:
		return &ExprStmt{base: v.base, X: CloneExpr(v.X)}
	case *ForStmt:
		cf := &ForStmt{base: v.base, Cond: CloneExpr(v.Cond), Post: CloneExpr(v.Post), Body: cloneBlock(v.Body)}
		if v.Init != nil {
			cf.Init = CloneStmt(v.Init)
		}
		cf.Pragmas = append([]string(nil), v.Pragmas...)
		return cf
	case *WhileStmt:
		cw := &WhileStmt{base: v.base, Cond: CloneExpr(v.Cond), Body: cloneBlock(v.Body)}
		cw.Pragmas = append([]string(nil), v.Pragmas...)
		return cw
	case *IfStmt:
		ci := &IfStmt{base: v.base, Cond: CloneExpr(v.Cond), Then: cloneBlock(v.Then)}
		if v.Else != nil {
			ci.Else = CloneStmt(v.Else)
		}
		return ci
	case *ReturnStmt:
		return &ReturnStmt{base: v.base, X: CloneExpr(v.X)}
	case *BreakStmt:
		return &BreakStmt{base: v.base}
	case *ContinueStmt:
		return &ContinueStmt{base: v.base}
	case *PragmaStmt:
		return &PragmaStmt{base: v.base, Text: v.Text}
	}
	panic(fmt.Sprintf("minic: CloneStmt: unhandled %T", s))
}

// CloneExpr deep-copies an expression (nil-safe).
func CloneExpr(e Expr) Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case *Ident:
		return &Ident{base: v.base, Name: v.Name}
	case *IntLit:
		return &IntLit{base: v.base, Val: v.Val, Text: v.Text}
	case *FloatLit:
		return &FloatLit{base: v.base, Val: v.Val, Text: v.Text, Single: v.Single}
	case *BoolLit:
		return &BoolLit{base: v.base, Val: v.Val}
	case *StringLit:
		return &StringLit{base: v.base, Val: v.Val}
	case *UnaryExpr:
		return &UnaryExpr{base: v.base, Op: v.Op, X: CloneExpr(v.X)}
	case *BinaryExpr:
		return &BinaryExpr{base: v.base, Op: v.Op, L: CloneExpr(v.L), R: CloneExpr(v.R)}
	case *AssignExpr:
		return &AssignExpr{base: v.base, Op: v.Op, LHS: CloneExpr(v.LHS), RHS: CloneExpr(v.RHS)}
	case *IncDecExpr:
		return &IncDecExpr{base: v.base, Op: v.Op, X: CloneExpr(v.X)}
	case *IndexExpr:
		return &IndexExpr{base: v.base, Base: CloneExpr(v.Base), Index: CloneExpr(v.Index)}
	case *CallExpr:
		cc := &CallExpr{base: v.base, Fun: v.Fun}
		cc.Args = make([]Expr, len(v.Args))
		for i, a := range v.Args {
			cc.Args[i] = CloneExpr(a)
		}
		return cc
	case *CastExpr:
		return &CastExpr{base: v.base, To: v.To, X: CloneExpr(v.X)}
	}
	panic(fmt.Sprintf("minic: CloneExpr: unhandled %T", e))
}
