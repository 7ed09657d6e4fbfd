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

// CloneFunc deep-copies a function. IDs are copied verbatim, so the copy
// can take the original's slot in a program without renumbering it.
func CloneFunc(f *FuncDecl) *FuncDecl {
	c := cloner{copies: 1}
	c.count(f)
	return c.fn(f)
}

// CloneStmt deep-copies a statement (nil-safe). IDs are copied verbatim;
// call AssignIDsFrom on the enclosing function if fresh IDs are needed.
func CloneStmt(s Stmt) Stmt {
	if s == nil {
		return nil
	}
	c := cloner{copies: 1}
	c.count(s)
	return c.stmt(s)
}

// CloneExpr deep-copies an expression (nil-safe).
func CloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	c := cloner{copies: 1}
	c.count(e)
	return c.expr(e)
}

// CloneUnrolled returns n copies of body, one per iteration of a loop
// unrolled in full: in copy k every Ident named v is written as the
// IntLit first + k*step, with a zero base. Every other node keeps its base
// verbatim, so the caller renumbers with AssignIDsFrom.
func CloneUnrolled(body *Block, v string, first, step int64, n int) []Stmt {
	c := cloner{copies: n, subst: v}
	c.count(body)
	out := make([]Stmt, n)
	for k := range out {
		c.val = first + int64(k)*step
		out[k] = c.block(body)
	}
	return out
}

// cloner is the one deep copy of MiniC syntax. A counting pass over the
// subtree sizes one slab per node kind and one per kind of list slot, and
// the copy hands each node out of its kind's slab, so a copy costs one
// allocation per kind present, not one per node. Each Stmts, Args, Params
// and Pragmas list of a copy is cut from its slot slab with capacity equal
// to its length: an append to one reallocates instead of writing into its
// neighbour's slots.
//
// Any node of a slab keeps the whole slab alive. The copies one call makes
// end up in one function — CloneFunc's copy, or the iterations
// CloneUnrolled writes into one kernel — and die with it, so nothing
// outlives the function it was copied for. A node an edit later drops
// from that function lives as long as the function does.
type cloner struct {
	copies int    // how many copies of the counted subtree the slabs hold
	subst  string // CloneUnrolled's induction variable, "" for a plain copy
	val    int64  // what subst is written as in the current copy
	slabs
}

// slabs holds one slab per node kind and one per kind of list slot. The
// cloner and the parser each count what they will build into the slabs'
// n first, and then take every node and every list from them.
type slabs struct {
	funcs     slab[FuncDecl]
	params    slab[Param]
	blocks    slab[Block]
	decls     slab[DeclStmt]
	exprStmts slab[ExprStmt]
	fors      slab[ForStmt]
	whiles    slab[WhileStmt]
	ifs       slab[IfStmt]
	returns   slab[ReturnStmt]
	breaks    slab[BreakStmt]
	continues slab[ContinueStmt]
	pragmas   slab[PragmaStmt]
	idents    slab[Ident]
	ints      slab[IntLit]
	floats    slab[FloatLit]
	bools     slab[BoolLit]
	strs      slab[StringLit]
	unaries   slab[UnaryExpr]
	binaries  slab[BinaryExpr]
	assigns   slab[AssignExpr]
	incDecs   slab[IncDecExpr]
	indexes   slab[IndexExpr]
	calls     slab[CallExpr]
	casts     slab[CastExpr]

	funcSlots   slab[*FuncDecl]
	paramSlots  slab[*Param]
	stmtSlots   slab[Stmt]
	argSlots    slab[Expr]
	pragmaSlots slab[string]
}

// dryChunk is how many elements a slab makes when it runs dry.
const dryChunk = 16

// slab holds one kind's elements: n of them, counted first, made at once
// by the first take and handed out in order. A kind that is never taken
// allocates nothing. A count that falls short is no error: a slab that
// runs dry makes a fresh chunk of dryChunk elements, or of what the take
// asks if more, so a count decides how often a slab allocates, never what
// it hands out.
type slab[T any] struct {
	n    int
	free []T
}

// take returns the slab's next n elements, with capacity n.
func (s *slab[T]) take(n int) []T {
	if s.free == nil || len(s.free) < n {
		s.free = make([]T, max(s.n, n))
		s.n = dryChunk
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// copy returns the slab's next element, set to *v.
func (s *slab[T]) copy(v *T) *T {
	p := &s.take(1)[0]
	*p = *v
	return p
}

// cut returns the slab's next len(list) elements, or nil when list is nil.
func (s *slab[T]) cut(list []T) []T {
	if list == nil {
		return nil
	}
	return s.take(len(list))
}

// count adds what c.copies copies of n hold to the slabs.
func (c *cloner) count(n Node) {
	k := c.copies
	Walk(n, func(m Node) bool {
		switch v := m.(type) {
		case *FuncDecl:
			c.funcs.n += k
			c.paramSlots.n += k * len(v.Params)
		case *Param:
			c.params.n += k
		case *Block:
			c.blocks.n += k
			c.stmtSlots.n += k * len(v.Stmts)
		case *DeclStmt:
			c.decls.n += k
		case *ExprStmt:
			c.exprStmts.n += k
		case *ForStmt:
			c.fors.n += k
			c.pragmaSlots.n += k * len(v.Pragmas)
		case *WhileStmt:
			c.whiles.n += k
			c.pragmaSlots.n += k * len(v.Pragmas)
		case *IfStmt:
			c.ifs.n += k
		case *ReturnStmt:
			c.returns.n += k
		case *BreakStmt:
			c.breaks.n += k
		case *ContinueStmt:
			c.continues.n += k
		case *PragmaStmt:
			c.pragmas.n += k
		case *Ident:
			if c.subst != "" && v.Name == c.subst {
				c.ints.n += k
			} else {
				c.idents.n += k
			}
		case *IntLit:
			c.ints.n += k
		case *FloatLit:
			c.floats.n += k
		case *BoolLit:
			c.bools.n += k
		case *StringLit:
			c.strs.n += k
		case *UnaryExpr:
			c.unaries.n += k
		case *BinaryExpr:
			c.binaries.n += k
		case *AssignExpr:
			c.assigns.n += k
		case *IncDecExpr:
			c.incDecs.n += k
		case *IndexExpr:
			c.indexes.n += k
		case *CallExpr:
			c.calls.n += k
			c.argSlots.n += k * len(v.Args)
		case *CastExpr:
			c.casts.n += k
		}
		return true
	})
}

func (c *cloner) fn(f *FuncDecl) *FuncDecl {
	cf := c.funcs.copy(f)
	cf.Params = c.paramSlots.cut(f.Params)
	for i, p := range f.Params {
		cf.Params[i] = c.params.copy(p)
	}
	cf.Body = c.block(f.Body)
	return cf
}

func (c *cloner) block(b *Block) *Block {
	if b == nil {
		return nil
	}
	cb := c.blocks.copy(b)
	cb.Stmts = c.stmtSlots.cut(b.Stmts)
	for i, s := range b.Stmts {
		cb.Stmts[i] = c.stmt(s)
	}
	return cb
}

func (c *cloner) stmt(s Stmt) Stmt {
	switch v := s.(type) {
	case nil:
		return nil
	case *Block:
		return c.block(v)
	case *DeclStmt:
		n := c.decls.copy(v)
		n.ArrayLen, n.Init = c.expr(v.ArrayLen), c.expr(v.Init)
		return n
	case *ExprStmt:
		n := c.exprStmts.copy(v)
		n.X = c.expr(v.X)
		return n
	case *ForStmt:
		n := c.fors.copy(v)
		n.Init, n.Cond, n.Post, n.Body = c.stmt(v.Init), c.expr(v.Cond), c.expr(v.Post), c.block(v.Body)
		n.Pragmas = c.pragmaSlots.cut(v.Pragmas)
		copy(n.Pragmas, v.Pragmas)
		return n
	case *WhileStmt:
		n := c.whiles.copy(v)
		n.Cond, n.Body = c.expr(v.Cond), c.block(v.Body)
		n.Pragmas = c.pragmaSlots.cut(v.Pragmas)
		copy(n.Pragmas, v.Pragmas)
		return n
	case *IfStmt:
		n := c.ifs.copy(v)
		n.Cond, n.Then, n.Else = c.expr(v.Cond), c.block(v.Then), c.stmt(v.Else)
		return n
	case *ReturnStmt:
		n := c.returns.copy(v)
		n.X = c.expr(v.X)
		return n
	case *BreakStmt:
		return c.breaks.copy(v)
	case *ContinueStmt:
		return c.continues.copy(v)
	case *PragmaStmt:
		return c.pragmas.copy(v)
	}
	panic(fmt.Sprintf("minic: clone: unhandled %T", s))
}

func (c *cloner) expr(e Expr) Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case *Ident:
		if c.subst != "" && v.Name == c.subst {
			return c.ints.copy(&IntLit{Val: c.val})
		}
		return c.idents.copy(v)
	case *IntLit:
		return c.ints.copy(v)
	case *FloatLit:
		return c.floats.copy(v)
	case *BoolLit:
		return c.bools.copy(v)
	case *StringLit:
		return c.strs.copy(v)
	case *UnaryExpr:
		n := c.unaries.copy(v)
		n.X = c.expr(v.X)
		return n
	case *BinaryExpr:
		n := c.binaries.copy(v)
		n.L, n.R = c.expr(v.L), c.expr(v.R)
		return n
	case *AssignExpr:
		n := c.assigns.copy(v)
		n.LHS, n.RHS = c.expr(v.LHS), c.expr(v.RHS)
		return n
	case *IncDecExpr:
		n := c.incDecs.copy(v)
		n.X = c.expr(v.X)
		return n
	case *IndexExpr:
		n := c.indexes.copy(v)
		n.Base, n.Index = c.expr(v.Base), c.expr(v.Index)
		return n
	case *CallExpr:
		n := c.calls.copy(v)
		n.Args = c.argSlots.cut(v.Args)
		for i, a := range v.Args {
			n.Args[i] = c.expr(a)
		}
		return n
	case *CastExpr:
		n := c.casts.copy(v)
		n.X = c.expr(v.X)
		return n
	}
	panic(fmt.Sprintf("minic: clone: unhandled %T", e))
}
