package minic

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders the program back to MiniC source. The output is valid
// input to Parse, and the printer normalizes formatting so that
// Parse(Print(p)) is structurally identical to p (the round-trip property
// is enforced by tests).
func Print(p *Program) string {
	var sb strings.Builder
	pr := printer{sb: &sb}
	for i, f := range p.Funcs {
		if i > 0 {
			pr.nl()
		}
		pr.fun(f)
	}
	return sb.String()
}

// WriteFunc appends f to sb as Print prints it, final newline included.
func WriteFunc(sb *strings.Builder, f *FuncDecl) {
	pr := printer{sb: sb}
	pr.fun(f)
}

// WriteStmts appends stmts to sb as Print prints them, each line indented
// by indent levels of four spaces.
func WriteStmts(sb *strings.Builder, stmts []Stmt, indent int) {
	pr := printer{sb: sb, indent: indent}
	for _, s := range stmts {
		pr.stmt(s)
	}
}

// FormatExpr renders a single expression.
func FormatExpr(e Expr) string {
	var sb strings.Builder
	pr := printer{sb: &sb}
	pr.expr(e, 0)
	return sb.String()
}

// CountLOC counts the lines of src that strings.TrimSpace leaves something
// of; this backs the paper's Table I "added lines of code" metric.
func CountLOC(src string) int {
	n := 0
	for src != "" {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

type printer struct {
	sb     *strings.Builder
	indent int
}

func (pr *printer) ws() {
	for i := 0; i < pr.indent; i++ {
		pr.sb.WriteString("    ")
	}
}

func (pr *printer) nl() { pr.sb.WriteByte('\n') }

// typ writes t: "const ", the kind, " *".
func (pr *printer) typ(t Type) {
	if t.Const {
		pr.sb.WriteString("const ")
	}
	pr.sb.WriteString(t.Kind.String())
	if t.Ptr {
		pr.sb.WriteString(" *")
	}
}

// named writes a declared type and name: "int x", but "double *p".
func (pr *printer) named(t Type, name string) {
	pr.typ(t)
	if !t.Ptr {
		pr.sb.WriteByte(' ')
	}
	pr.sb.WriteString(name)
}

// pragma writes one "#pragma" line at the current indentation.
func (pr *printer) pragma(text string) {
	pr.ws()
	pr.sb.WriteString("#pragma ")
	pr.sb.WriteString(text)
	pr.nl()
}

func (pr *printer) fun(f *FuncDecl) {
	pr.typ(f.Ret)
	pr.sb.WriteByte(' ')
	pr.sb.WriteString(f.Name)
	pr.sb.WriteByte('(')
	for i, p := range f.Params {
		if i > 0 {
			pr.sb.WriteString(", ")
		}
		pr.named(p.Type, p.Name)
	}
	pr.sb.WriteString(") ")
	pr.block(f.Body)
	pr.nl()
}

func (pr *printer) block(b *Block) {
	pr.sb.WriteString("{\n")
	pr.indent++
	for _, s := range b.Stmts {
		pr.stmt(s)
	}
	pr.indent--
	pr.ws()
	pr.sb.WriteString("}")
}

func (pr *printer) stmt(s Stmt) {
	switch v := s.(type) {
	case *Block:
		pr.ws()
		pr.block(v)
		pr.nl()
	case *DeclStmt:
		pr.ws()
		pr.declNoSemi(v)
		pr.sb.WriteString(";\n")
	case *ExprStmt:
		pr.ws()
		pr.expr(v.X, 0)
		pr.sb.WriteString(";\n")
	case *ForStmt:
		for _, pg := range v.Pragmas {
			pr.pragma(pg)
		}
		pr.ws()
		pr.sb.WriteString("for (")
		switch init := v.Init.(type) {
		case nil:
		case *DeclStmt:
			pr.declNoSemi(init)
		case *ExprStmt:
			pr.expr(init.X, 0)
		}
		pr.sb.WriteString("; ")
		if v.Cond != nil {
			pr.expr(v.Cond, 0)
		}
		pr.sb.WriteString("; ")
		if v.Post != nil {
			pr.expr(v.Post, 0)
		}
		pr.sb.WriteString(") ")
		pr.block(v.Body)
		pr.nl()
	case *WhileStmt:
		for _, pg := range v.Pragmas {
			pr.pragma(pg)
		}
		pr.ws()
		pr.sb.WriteString("while (")
		pr.expr(v.Cond, 0)
		pr.sb.WriteString(") ")
		pr.block(v.Body)
		pr.nl()
	case *IfStmt:
		pr.ws()
		pr.ifChain(v)
		pr.nl()
	case *ReturnStmt:
		pr.ws()
		if v.X != nil {
			pr.sb.WriteString("return ")
			pr.expr(v.X, 0)
			pr.sb.WriteString(";\n")
		} else {
			pr.sb.WriteString("return;\n")
		}
	case *BreakStmt:
		pr.ws()
		pr.sb.WriteString("break;\n")
	case *ContinueStmt:
		pr.ws()
		pr.sb.WriteString("continue;\n")
	case *PragmaStmt:
		pr.pragma(v.Text)
	default:
		panic(fmt.Sprintf("minic: printer: unhandled statement %T", s))
	}
}

func (pr *printer) ifChain(v *IfStmt) {
	pr.sb.WriteString("if (")
	pr.expr(v.Cond, 0)
	pr.sb.WriteString(") ")
	pr.block(v.Then)
	switch e := v.Else.(type) {
	case nil:
	case *IfStmt:
		pr.sb.WriteString(" else ")
		pr.ifChain(e)
	case *Block:
		pr.sb.WriteString(" else ")
		pr.block(e)
	}
}

func (pr *printer) declNoSemi(d *DeclStmt) {
	pr.named(d.Type, d.Name)
	if d.ArrayLen != nil {
		pr.sb.WriteString("[")
		pr.expr(d.ArrayLen, 0)
		pr.sb.WriteString("]")
	}
	if d.Init != nil {
		pr.sb.WriteString(" = ")
		pr.expr(d.Init, 0)
	}
}

// Binding powers for precedence-aware parenthesization; higher binds
// tighter. Mirrors the parser's precedence levels.
func prec(op TokKind) int {
	switch op {
	case TokOrOr:
		return 1
	case TokAndAnd:
		return 2
	case TokEqEq, TokNe:
		return 3
	case TokLt, TokGt, TokLe, TokGe:
		return 4
	case TokPlus, TokMinus:
		return 5
	case TokStar, TokSlash, TokPercent:
		return 6
	}
	return 0
}

// expr prints e; outer is the binding power of the surrounding context.
func (pr *printer) expr(e Expr, outer int) {
	switch v := e.(type) {
	case *Ident:
		pr.sb.WriteString(v.Name)
	case *IntLit:
		if v.Text != "" {
			pr.sb.WriteString(v.Text)
		} else {
			pr.sb.WriteString(strconv.FormatInt(v.Val, 10))
		}
	case *FloatLit:
		pr.sb.WriteString(floatText(v))
	case *BoolLit:
		if v.Val {
			pr.sb.WriteString("true")
		} else {
			pr.sb.WriteString("false")
		}
	case *StringLit:
		pr.sb.WriteString(strconv.Quote(v.Val))
	case *UnaryExpr:
		if outer > 7 {
			pr.sb.WriteString("(")
		}
		if v.Op == TokMinus {
			pr.sb.WriteString("-")
			// Avoid "--" when the operand is itself a unary minus.
			if inner, ok := v.X.(*UnaryExpr); ok && inner.Op == TokMinus {
				pr.sb.WriteString(" ")
			}
		} else {
			pr.sb.WriteString("!")
		}
		pr.expr(v.X, 7)
		if outer > 7 {
			pr.sb.WriteString(")")
		}
	case *BinaryExpr:
		p := prec(v.Op)
		if p < outer {
			pr.sb.WriteString("(")
		}
		pr.expr(v.L, p)
		pr.op(v.Op)
		pr.expr(v.R, p+1) // left-assoc: right operand needs higher power
		if p < outer {
			pr.sb.WriteString(")")
		}
	case *AssignExpr:
		if outer > 0 {
			pr.sb.WriteString("(")
		}
		pr.expr(v.LHS, 8)
		pr.op(v.Op)
		pr.expr(v.RHS, 0)
		if outer > 0 {
			pr.sb.WriteString(")")
		}
	case *IncDecExpr:
		pr.expr(v.X, 8)
		pr.sb.WriteString(v.Op.String())
	case *IndexExpr:
		pr.expr(v.Base, 8)
		pr.sb.WriteString("[")
		pr.expr(v.Index, 0)
		pr.sb.WriteString("]")
	case *CallExpr:
		pr.sb.WriteString(v.Fun)
		pr.sb.WriteString("(")
		for i, a := range v.Args {
			if i > 0 {
				pr.sb.WriteString(", ")
			}
			pr.expr(a, 0)
		}
		pr.sb.WriteString(")")
	case *CastExpr:
		if outer > 7 {
			pr.sb.WriteString("(")
		}
		pr.sb.WriteByte('(')
		pr.typ(v.To)
		pr.sb.WriteByte(')')
		pr.expr(v.X, 7)
		if outer > 7 {
			pr.sb.WriteString(")")
		}
	default:
		panic(fmt.Sprintf("minic: printer: unhandled expression %T", e))
	}
}

// op writes a binary or assignment operator between its operands.
func (pr *printer) op(op TokKind) {
	pr.sb.WriteByte(' ')
	pr.sb.WriteString(op.String())
	pr.sb.WriteByte(' ')
}

// floatText renders a float literal, preserving the original spelling when
// available and consistent with the Single flag.
func floatText(v *FloatLit) string {
	text := v.Text
	if text != "" {
		hasSuffix := strings.HasSuffix(text, "f") || strings.HasSuffix(text, "F")
		if hasSuffix == v.Single {
			return text
		}
		if v.Single {
			return text + "f"
		}
		return strings.TrimRight(text, "fF")
	}
	s := strconv.FormatFloat(v.Val, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	if v.Single {
		s += "f"
	}
	return s
}
