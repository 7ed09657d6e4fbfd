package minic

import (
	"fmt"
	"slices"
)

// BasicKind enumerates MiniC base types.
type BasicKind int

// Base type kinds.
const (
	Void BasicKind = iota
	Bool
	Int
	Float
	Double
)

// String returns the C spelling of the kind.
func (k BasicKind) String() string {
	switch k {
	case Void:
		return "void"
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case Double:
		return "double"
	}
	return fmt.Sprintf("BasicKind(%d)", int(k))
}

// Size is the byte width of one array element of the kind: 4 for int and
// float, 8 for double and for the kinds no array holds.
func (k BasicKind) Size() int64 {
	if k == Int || k == Float {
		return 4
	}
	return 8
}

// Type is a MiniC type: a base kind, optionally a pointer, optionally
// const-qualified.
type Type struct {
	Kind  BasicKind
	Ptr   bool
	Const bool
}

// String returns the C spelling of the type.
func (t Type) String() string {
	s := t.Kind.String()
	if t.Const {
		s = "const " + s
	}
	if t.Ptr {
		s += " *"
	}
	return s
}

// IsFloating reports whether the base kind is float or double.
func (t Type) IsFloating() bool { return t.Kind == Float || t.Kind == Double }

// Node is any AST node. Every node carries a stable ID (unique within its
// Program after AssignIDs) and the source position it was parsed at.
type Node interface {
	ID() int
	NodePos() Pos
	setID(int)
}

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// base is embedded by every concrete node.
type base struct {
	id  int
	pos Pos
}

// ID returns the node's identifier (0 until AssignIDs runs).
func (b *base) ID() int { return b.id }

// NodePos returns the node's source position.
func (b *base) NodePos() Pos { return b.pos }

func (b *base) setID(id int) { b.id = id }

// Program is a parsed MiniC translation unit.
type Program struct {
	base
	Funcs []*FuncDecl
}

// FuncDecl is a function definition.
type FuncDecl struct {
	base
	Ret    Type
	Name   string
	Params []*Param
	Body   *Block
}

// Param is a function parameter.
type Param struct {
	base
	Type Type
	Name string
}

// Block is a brace-delimited statement list.
type Block struct {
	base
	Stmts []Stmt
}

// DeclStmt declares a local variable, optionally a fixed-size array,
// optionally with an initializer.
type DeclStmt struct {
	base
	Type     Type
	Name     string
	ArrayLen Expr // nil unless an array declaration
	Init     Expr // nil if uninitialized
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	base
	X Expr
}

// ForStmt is a C-style for loop. Pragmas holds the text of `#pragma`
// directives attached immediately before the loop (e.g. "unroll 4",
// "omp parallel for num_threads(32)").
type ForStmt struct {
	base
	Init    Stmt // DeclStmt or ExprStmt, may be nil
	Cond    Expr // may be nil
	Post    Expr // may be nil
	Body    *Block
	Pragmas []string
}

// WhileStmt is a while loop; pragma attachment matches ForStmt.
type WhileStmt struct {
	base
	Cond    Expr
	Body    *Block
	Pragmas []string
}

// IfStmt is an if with optional else (Else is *Block or *IfStmt).
type IfStmt struct {
	base
	Cond Expr
	Then *Block
	Else Stmt // nil, *Block, or *IfStmt
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	base
	X Expr // nil for bare return
}

// BreakStmt breaks the innermost loop.
type BreakStmt struct{ base }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ base }

// PragmaStmt is a free-standing pragma that was not attached to a loop.
type PragmaStmt struct {
	base
	Text string
}

// Ident is a variable reference.
type Ident struct {
	base
	Name string
}

// IntLit is an integer literal.
type IntLit struct {
	base
	Val  int64
	Text string
}

// FloatLit is a floating literal. Single records an 'f' suffix
// (single precision), which the SP-literal transform toggles.
type FloatLit struct {
	base
	Val    float64
	Text   string
	Single bool
}

// BoolLit is true or false.
type BoolLit struct {
	base
	Val bool
}

// StringLit appears only as an argument to diagnostic builtins.
type StringLit struct {
	base
	Val string
}

// UnaryExpr is -x or !x.
type UnaryExpr struct {
	base
	Op TokKind // TokMinus or TokNot
	X  Expr
}

// BinaryExpr is a binary arithmetic, comparison, or logical expression.
type BinaryExpr struct {
	base
	Op TokKind
	L  Expr
	R  Expr
}

// AssignExpr is an assignment; Op is one of =, +=, -=, *=, /=. LHS is an
// Ident or IndexExpr.
type AssignExpr struct {
	base
	Op  TokKind
	LHS Expr
	RHS Expr
}

// IncDecExpr is x++ or x--.
type IncDecExpr struct {
	base
	Op TokKind // TokPlusPlus or TokMinusMinus
	X  Expr
}

// IndexExpr is base[index].
type IndexExpr struct {
	base
	Base  Expr
	Index Expr
}

// CallExpr is a call to a named function (user-defined or builtin).
type CallExpr struct {
	base
	Fun  string
	Args []Expr
}

// CastExpr is (type)x.
type CastExpr struct {
	base
	To Type
	X  Expr
}

func (*Program) stmtNode()      {} // never used; keeps Program out of Expr/Stmt sets
func (*Block) stmtNode()        {}
func (*DeclStmt) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*IfStmt) stmtNode()       {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*PragmaStmt) stmtNode()   {}

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*BoolLit) exprNode()    {}
func (*StringLit) exprNode()  {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*AssignExpr) exprNode() {}
func (*IncDecExpr) exprNode() {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*CastExpr) exprNode()   {}

// EachChild calls fn for each direct child node of n in source order,
// skipping absent (nil) children. It allocates nothing and is the single
// structural description of the AST: Walk, and through it every query, is
// built on it, so a new node kind is described here once.
func EachChild(n Node, fn func(Node)) {
	each := func(c Node) {
		if c != nil {
			fn(c)
		}
	}
	block := func(b *Block) {
		if b != nil {
			fn(b)
		}
	}
	switch v := n.(type) {
	case *Program:
		for _, f := range v.Funcs {
			fn(f)
		}
	case *FuncDecl:
		for _, p := range v.Params {
			fn(p)
		}
		block(v.Body)
	case *Block:
		for _, s := range v.Stmts {
			each(s)
		}
	case *DeclStmt:
		each(v.ArrayLen)
		each(v.Init)
	case *ExprStmt:
		each(v.X)
	case *ForStmt:
		each(v.Init)
		each(v.Cond)
		each(v.Post)
		block(v.Body)
	case *WhileStmt:
		each(v.Cond)
		block(v.Body)
	case *IfStmt:
		each(v.Cond)
		block(v.Then)
		each(v.Else)
	case *ReturnStmt:
		each(v.X)
	case *UnaryExpr:
		each(v.X)
	case *BinaryExpr:
		each(v.L)
		each(v.R)
	case *AssignExpr:
		each(v.LHS)
		each(v.RHS)
	case *IncDecExpr:
		each(v.X)
	case *IndexExpr:
		each(v.Base)
		each(v.Index)
	case *CallExpr:
		for _, a := range v.Args {
			each(a)
		}
	case *CastExpr:
		each(v.X)
	}
}

// Walk visits n and all its descendants in depth-first source order,
// calling fn for each. If fn returns false the node's subtree is skipped.
// The traversal itself allocates nothing.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	EachChild(n, func(c Node) { Walk(c, fn) })
}

// AssignIDs numbers every node in the program with a unique, dense,
// depth-first ID starting at 1, and returns the number of nodes.
func AssignIDs(p *Program) int {
	p.setID(1)
	return assignIDs(p.Funcs, 2)
}

// AssignIDsFrom renumbers f, a function of p, and every function after it
// from f's own ID on, and returns the number of nodes in p. An edit inside
// f moves no node before f in depth-first order, so after one the result is
// exactly AssignIDs's, and the functions before f are neither read nor
// written.
func AssignIDsFrom(p *Program, f *FuncDecl) int {
	return assignIDs(p.Funcs[slices.Index(p.Funcs, f):], f.ID())
}

// assignIDs numbers funcs' nodes in depth-first order from next on and
// returns the last ID given.
func assignIDs(funcs []*FuncDecl, next int) int {
	number := func(n Node) bool {
		n.setID(next)
		next++
		return true
	}
	for _, f := range funcs {
		Walk(f, number)
	}
	return next - 1
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// MustFunc returns the named function or panics; intended for tests and
// harness code where the function is known to exist.
func (p *Program) MustFunc(name string) *FuncDecl {
	f := p.Func(name)
	if f == nil {
		panic(fmt.Sprintf("minic: no function %q", name))
	}
	return f
}
