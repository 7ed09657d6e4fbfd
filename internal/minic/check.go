package minic

import (
	"fmt"
	"slices"
)

// Check reports the first construct of p, in the order the interpreter
// evaluates a function's code, that fails whenever it runs and whose
// failure the static types decide, with the message the interpreter gives
// it:
//
//   - an undefined name or function;
//   - a user call with the wrong number of arguments, or a pointer
//     parameter given a non-pointer or a pointer of another element kind;
//   - a builtin call with the wrong number of arguments;
//   - break or continue outside a loop;
//   - arithmetic or a comparison on a pointer or void, % on operands that
//     are not both int, and a compound assignment to a pointer or void;
//   - indexing a non-pointer;
//   - assigning to a pointer or void variable, and ++ or -- on one, or on
//     a bool;
//   - a pointer declared, cast or returned from a non-pointer or from a
//     pointer of another element kind, and a pointer declared without an
//     initialiser.
//
// It also rejects, as C compilers do, using the value of a call to a void
// function or to one that can end without returning a value. After it,
// TypeOf types every expression of p under its function's scope, and the
// type is the kind of every value the expression produces.
//
// The error is a *ParseError. Parse calls Check, so every parsed program
// is checked; a program built or edited by hand is checked by calling it.
func Check(p *Program) error {
	c := &checker{Program: p, vars: make([]binding, 0, 32), innermost: make(map[string]int32, 16),
		valued: make([]bool, len(p.Funcs))}
	for i, f := range p.Funcs {
		c.valued[i] = returnsValue(f)
	}
	for _, f := range p.Funcs {
		c.fn, c.loops = f, 0
		for _, prm := range f.Params {
			c.declare(prm.Name, prm.Type)
		}
		c.block(f.Body.Stmts)
		c.close(0)
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// binding is one declared variable on the checker's scope stack.
type binding struct {
	name   string
	t      Type
	shadow int32 // the index of the binding of name it hides, -1 if none
}

// checker is Check's state: the scope stack of the function being checked
// (its parameters, then each open block's declarations, innermost last),
// reused across functions, and the index of each visible name's innermost
// binding, so a lookup costs the same however many names are in scope.
// The embedded program resolves calls, so the checker is the Scope its
// expressions are typed in.
type checker struct {
	*Program
	fn        *FuncDecl
	vars      []binding
	innermost map[string]int32
	loops     int // loops enclosing the statement being checked
	// valued[i] reports whether every call of Funcs[i] returns a value.
	valued []bool
	err    *ParseError // the first error; the walk goes on past it
}

// VarType resolves name to its innermost declaration.
func (c *checker) VarType(name string) (Type, bool) {
	if i, ok := c.innermost[name]; ok {
		return c.vars[i].t, true
	}
	return Type{}, false
}

func (c *checker) declare(name string, t Type) {
	shadow, ok := c.innermost[name]
	if !ok {
		shadow = -1
	}
	c.innermost[name] = int32(len(c.vars))
	c.vars = append(c.vars, binding{name, t, shadow})
}

// close ends the scopes opened since the stack held mark bindings.
func (c *checker) close(mark int) {
	for i := len(c.vars) - 1; i >= mark; i-- {
		if b := c.vars[i]; b.shadow < 0 {
			delete(c.innermost, b.name)
		} else {
			c.innermost[b.name] = b.shadow
		}
	}
	c.vars = c.vars[:mark]
}

// fail records an error at pos unless one is recorded already.
func (c *checker) fail(pos Pos, format string, args ...any) {
	if c.err == nil {
		c.err = &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
}

// block checks stmts in a scope of their own.
func (c *checker) block(stmts []Stmt) {
	mark := len(c.vars)
	for _, s := range stmts {
		c.stmt(s)
	}
	c.close(mark)
}

func (c *checker) stmt(s Stmt) {
	switch v := s.(type) {
	case *Block:
		c.block(v.Stmts)
	case *DeclStmt:
		c.decl(v)
	case *ExprStmt:
		c.expr(v.X, false)
	case *ForStmt:
		mark := len(c.vars) // the for-init scope
		if v.Init != nil {
			c.stmt(v.Init)
		}
		if v.Cond != nil {
			c.expr(v.Cond, true)
		}
		if v.Post != nil {
			c.expr(v.Post, false)
		}
		c.loop(v.Body)
		c.close(mark)
	case *WhileStmt:
		c.expr(v.Cond, true)
		c.loop(v.Body)
	case *IfStmt:
		c.expr(v.Cond, true)
		c.block(v.Then.Stmts)
		if v.Else != nil {
			c.stmt(v.Else)
		}
	case *ReturnStmt:
		if v.X != nil {
			t := c.expr(v.X, true)
			if msg := coercion(c.fn.Ret, t); msg != "" {
				c.fail(v.pos, "return: %s", msg)
			}
		}
	case *BreakStmt, *ContinueStmt:
		if c.loops == 0 {
			c.fail(s.NodePos(), "break/continue escaped function %s", c.fn.Name)
		}
	}
}

func (c *checker) loop(body *Block) {
	c.loops++
	c.block(body.Stmts)
	c.loops--
}

// decl checks a declaration: an array's length (and an initialiser, which
// the run never evaluates), or a variable's initialiser, which must give a
// pointer variable a buffer of its kind. The name is visible after it.
func (c *checker) decl(d *DeclStmt) {
	t := d.Type
	if d.ArrayLen != nil {
		c.expr(d.ArrayLen, true)
		t = Type{Kind: d.Type.Kind, Ptr: true}
	}
	init := Type{Kind: Void} // an uninitialised variable holds void
	if d.Init != nil {
		init = c.expr(d.Init, true)
	}
	if d.ArrayLen == nil {
		if msg := coercion(t, init); msg != "" {
			c.fail(d.pos, "declare %s: %s", d.Name, msg)
		}
	}
	c.declare(d.Name, t)
}

// coercion is the error of the run's coercion of a value of type from to a
// variable of type to, "" where it cannot fail: only a pointer needs a
// buffer of its own element kind.
func coercion(to, from Type) string {
	switch {
	case !to.Ptr:
		return ""
	case !from.Ptr:
		return fmt.Sprintf("expected buffer for %s, got %s", to, valueKind(from))
	case from.Kind != to.Kind:
		return fmt.Sprintf("buffer element kind %s, want %s", from.Kind, to.Kind)
	}
	return ""
}

// valueKind names the kind of the run's values of type t.
func valueKind(t Type) string {
	if t.Ptr {
		return "buffer"
	}
	return t.Kind.String()
}

// expr checks e and returns its type. used is false where e's value is
// discarded: an expression statement and a for loop's post expression.
func (c *checker) expr(e Expr, used bool) Type {
	var x, y Type // e's operands' types, as typeRule takes them
	switch v := e.(type) {
	case *Ident:
		if _, ok := c.VarType(v.Name); !ok {
			c.fail(v.pos, "undefined variable %q", v.Name)
		}
	case *UnaryExpr:
		x = c.expr(v.X, true)
	case *BinaryExpr:
		x, y = c.expr(v.L, true), c.expr(v.R, true)
		switch {
		case v.Op == TokAndAnd || v.Op == TokOrOr:
		case !x.numeric() || !y.numeric():
			c.fail(v.pos, "non-numeric operands to %s", v.Op)
		case v.Op == TokPercent && (x.Kind != Int || y.Kind != Int):
			c.fail(v.pos, "%% requires int operands")
		}
	case *AssignExpr:
		y = c.expr(v.RHS, true) // the run evaluates the right-hand side first
		x = c.expr(v.LHS, true)
		switch {
		case v.Op != TokAssign && (!x.numeric() || !y.numeric()):
			c.fail(v.pos, "non-numeric compound assignment")
		case !isIndex(v.LHS) && !x.numeric():
			c.fail(v.LHS.NodePos(), "cannot assign to %s", valueKind(x))
		}
	case *IncDecExpr:
		x = c.expr(v.X, true)
		if !isIndex(v.X) && (!x.numeric() || x.Kind == Bool) {
			c.fail(v.X.NodePos(), "cannot ++/-- a %s", valueKind(x))
		}
	case *IndexExpr:
		x = c.expr(v.Base, true)
		if !x.Ptr {
			c.fail(v.pos, "indexing non-array value (%s)", valueKind(x))
		}
		c.expr(v.Index, true)
	case *CallExpr:
		c.call(v, used)
	case *CastExpr:
		if msg := coercion(v.To, c.expr(v.X, true)); msg != "" {
			c.fail(v.pos, "%s", msg)
		}
	}
	t, _ := typeRule(e, c, typed{x, true}, typed{y, true})
	return t
}

// call checks a call: printf takes anything, a builtin its arity, and a
// user function its arity and a buffer of each pointer parameter's kind.
func (c *checker) call(v *CallExpr, used bool) {
	switch in, builtin := LookupIntrinsic(v.Fun); {
	case v.Fun == "printf":
		c.args(v)
	case builtin:
		c.args(v)
		if len(v.Args) != in.Arity {
			c.fail(v.pos, "%s: %d args, want %d", v.Fun, len(v.Args), in.Arity)
		}
	default:
		i := slices.IndexFunc(c.Funcs, func(f *FuncDecl) bool { return f.Name == v.Fun })
		if i < 0 {
			c.fail(v.pos, "call to undefined function %q", v.Fun)
			return
		}
		c.args(v)
		f := c.Funcs[i]
		if len(v.Args) != len(f.Params) {
			c.fail(v.pos, "call %s: %d args, want %d", f.Name, len(v.Args), len(f.Params))
			return
		}
		for j, prm := range f.Params {
			if !prm.Type.Ptr {
				continue
			}
			t, _ := TypeOf(v.Args[j], c)
			if msg := coercion(prm.Type, t); msg != "" {
				c.fail(v.pos, "call %s param %s: %s", f.Name, prm.Name, msg)
			}
		}
		switch {
		case !used || c.valued[i]:
		case isVoid(f.Ret):
			c.fail(v.pos, "void function %s used as a value", f.Name)
		default:
			c.fail(v.pos, "function %s used as a value can end without returning one", f.Name)
		}
	}
}

func (c *checker) args(v *CallExpr) {
	for _, a := range v.Args {
		c.expr(a, true)
	}
}

func isVoid(t Type) bool { return t.Kind == Void && !t.Ptr }

// returnsValue reports whether every call of f returns a value of its
// declared type: f is not void, has no bare return, and cannot run off
// its end.
func returnsValue(f *FuncDecl) bool {
	if isVoid(f.Ret) {
		return false
	}
	bare := false
	Walk(f.Body, func(n Node) bool {
		if r, ok := n.(*ReturnStmt); ok && r.X == nil {
			bare = true
		}
		return !bare
	})
	return !bare && returns(f.Body)
}

// returns reports whether control cannot run past s: s returns, or is a
// block with a statement that returns, or an if whose branches both
// return. A loop may always end.
func returns(s Stmt) bool {
	switch v := s.(type) {
	case *ReturnStmt:
		return true
	case *Block:
		return slices.ContainsFunc(v.Stmts, returns)
	case *IfStmt:
		return v.Else != nil && returns(v.Then) && returns(v.Else)
	}
	return false
}
