package minic

// Scope resolves the names an expression reads: a variable to its declared
// type (an array is a pointer to its element kind), and a user function to
// its declaration.
type Scope interface {
	VarType(name string) (Type, bool)
	// Func returns the user function called name, nil if there is none.
	Func(name string) *FuncDecl
}

// TypeOf is the static type of the value e evaluates to under s: the type
// of the value the interpreter produces whenever evaluating e produces
// one. ok is false where s does not resolve a name e's type reads, and on
// arithmetic on a pointer or void operand. Under the scope of its function
// (parameters and block-scoped declarations, and the program's functions)
// every expression of a program Check accepts has a type.
//
// Arithmetic promotes double > float > int, and bool promotes as int.
// Comparisons and logical operators are bool and % is int. Unary - keeps
// int and float and makes any other operand double. A variable keeps its
// declared type under assignment; an element store yields the stored
// value, promoted with the old element when compound. An indexed pointer
// yields its Elem. A cast is its target type, a builtin call its
// Intrinsic.Result and a user call its function's declared return type
// (Check rejects using the value of a call that may return none).
func TypeOf(e Expr, s Scope) (Type, bool) {
	var x, y Expr
	switch v := e.(type) {
	case *UnaryExpr:
		x = v.X
	case *BinaryExpr:
		x, y = v.L, v.R
	case *AssignExpr:
		x, y = v.LHS, v.RHS
	case *IncDecExpr:
		x = v.X
	case *IndexExpr:
		x = v.Base
	}
	return typeRule(e, s, typeOfOperand(x, s), typeOfOperand(y, s))
}

// typed is an operand's type as TypeOf gives it.
type typed struct {
	t  Type
	ok bool
}

func typeOfOperand(e Expr, s Scope) typed {
	if e == nil {
		return typed{}
	}
	t, ok := TypeOf(e, s)
	return typed{t, ok}
}

// typeRule is TypeOf's rule for e, given x and y, the types of its
// operands: X, L and R, LHS and RHS, or Base. TypeOf types the operands
// first; Check has typed them already.
func typeRule(e Expr, s Scope, x, y typed) (Type, bool) {
	switch v := e.(type) {
	case *IntLit:
		return Type{Kind: Int}, true
	case *FloatLit:
		if v.Single {
			return Type{Kind: Float}, true
		}
		return Type{Kind: Double}, true
	case *BoolLit:
		return Type{Kind: Bool}, true
	case *StringLit:
		return Type{Kind: Void}, true
	case *Ident:
		return s.VarType(v.Name)
	case *UnaryExpr:
		switch {
		case v.Op == TokNot:
			return Type{Kind: Bool}, true
		case !x.ok:
			return Type{}, false
		case !x.t.Ptr && (x.t.Kind == Int || x.t.Kind == Float):
			return Type{Kind: x.t.Kind}, true
		}
		return Type{Kind: Double}, true
	case *BinaryExpr:
		switch v.Op {
		case TokAndAnd, TokOrOr, TokLt, TokGt, TokLe, TokGe, TokEqEq, TokNe:
			return Type{Kind: Bool}, true
		case TokPercent:
			return Type{Kind: Int}, true
		}
		return promote(x, y)
	case *AssignExpr:
		switch {
		case !isIndex(v.LHS):
			return x.t, x.ok
		case v.Op == TokAssign:
			return y.t, y.ok
		}
		return promote(x, y)
	case *IncDecExpr:
		return x.t, x.ok // the old value
	case *IndexExpr:
		if x.ok && x.t.Ptr {
			return x.t.Elem(), true
		}
	case *CallExpr:
		if v.Fun == "printf" {
			return Type{Kind: Void}, true
		}
		if in, ok := LookupIntrinsic(v.Fun); ok {
			return Type{Kind: in.Result}, true
		}
		if f := s.Func(v.Fun); f != nil {
			return f.Ret, true
		}
	case *CastExpr:
		return v.To, true
	}
	return Type{}, false
}

func isIndex(e Expr) bool {
	_, ok := e.(*IndexExpr)
	return ok
}

// Elem is the type of an element of an array of t's kind: int or float
// for an int or float array, double for any other.
func (t Type) Elem() Type {
	if t.Kind == Int || t.Kind == Float {
		return Type{Kind: t.Kind}
	}
	return Type{Kind: Double}
}

// numeric reports whether a value of type t takes part in arithmetic: any
// scalar but void.
func (t Type) numeric() bool { return !t.Ptr && t.Kind != Void }

// promote is the type of arithmetic on operands of types l and r.
func promote(l, r typed) (Type, bool) {
	if !l.ok || !r.ok || !l.t.numeric() || !r.t.numeric() {
		return Type{}, false
	}
	switch {
	case l.t.Kind == Double || r.t.Kind == Double:
		return Type{Kind: Double}, true
	case l.t.Kind == Float || r.t.Kind == Float:
		return Type{Kind: Float}, true
	}
	return Type{Kind: Int}, true
}
