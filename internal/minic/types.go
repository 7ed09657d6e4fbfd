package minic

// Scope resolves a variable name to its declared type. An array is a
// pointer to its element kind.
type Scope interface {
	VarType(name string) (Type, bool)
}

// TypeOf is the static type of the value e evaluates to under s: the type
// of the value the interpreter produces whenever evaluating e produces
// one. ok is false where only the run fixes it: a user call's result (a
// function that falls off its end returns void), a name s does not
// resolve, and arithmetic on a pointer or void operand (the run fails
// before producing a value).
//
// Arithmetic promotes double > float > int, and bool promotes as int.
// Comparisons and logical operators are bool and % is int. Unary - keeps
// int and float and makes any other operand double. A variable keeps its
// declared type under assignment; an element store yields the stored
// value, promoted with the old element when compound. An indexed pointer
// yields its Elem. A cast is its target type and a builtin call its
// Intrinsic.Result.
func TypeOf(e Expr, s Scope) (Type, bool) {
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
		if v.Op == TokNot {
			return Type{Kind: Bool}, true
		}
		t, ok := TypeOf(v.X, s)
		switch {
		case !ok:
			return Type{}, false
		case !t.Ptr && (t.Kind == Int || t.Kind == Float):
			return Type{Kind: t.Kind}, true
		}
		return Type{Kind: Double}, true
	case *BinaryExpr:
		switch v.Op {
		case TokAndAnd, TokOrOr, TokLt, TokGt, TokLe, TokGe, TokEqEq, TokNe:
			return Type{Kind: Bool}, true
		case TokPercent:
			return Type{Kind: Int}, true
		}
		return promote(v.L, v.R, s)
	case *AssignExpr:
		if _, ok := v.LHS.(*IndexExpr); !ok {
			return TypeOf(v.LHS, s)
		}
		if v.Op == TokAssign {
			return TypeOf(v.RHS, s)
		}
		return promote(v.LHS, v.RHS, s)
	case *IncDecExpr:
		return TypeOf(v.X, s) // the old value
	case *IndexExpr:
		if t, ok := TypeOf(v.Base, s); ok && t.Ptr {
			return t.Elem(), true
		}
	case *CallExpr:
		if v.Fun == "printf" {
			return Type{Kind: Void}, true
		}
		if in, ok := LookupIntrinsic(v.Fun); ok {
			return Type{Kind: in.Result}, true
		}
	case *CastExpr:
		return v.To, true
	}
	return Type{}, false
}

// Elem is the type of an element of an array of t's kind: int or float
// for an int or float array, double for any other.
func (t Type) Elem() Type {
	if t.Kind == Int || t.Kind == Float {
		return Type{Kind: t.Kind}
	}
	return Type{Kind: Double}
}

// promote is the type of arithmetic on l and r.
func promote(l, r Expr, s Scope) (Type, bool) {
	lt, lok := TypeOf(l, s)
	rt, rok := TypeOf(r, s)
	if !lok || !rok || lt.Ptr || rt.Ptr || lt.Kind == Void || rt.Kind == Void {
		return Type{}, false
	}
	switch {
	case lt.Kind == Double || rt.Kind == Double:
		return Type{Kind: Double}, true
	case lt.Kind == Float || rt.Kind == Float:
		return Type{Kind: Float}, true
	}
	return Type{Kind: Int}, true
}
