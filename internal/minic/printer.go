package minic

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Print renders the program back to MiniC source. The output is valid
// input to Parse, and the printer normalizes formatting so that
// Parse(Print(p)) is structurally identical to p (the round-trip property
// is enforced by tests).
func Print(p *Program) string {
	buf := printScratch.Get().(*[]byte)
	*buf = appendProgram((*buf)[:0], p)
	src := string(*buf)
	printScratch.Put(buf)
	return src
}

// ProgramLOC is CountLOC(Print(p)), counted on pooled print scratch, so
// the program's text is never made.
func ProgramLOC(p *Program) int {
	buf := printScratch.Get().(*[]byte)
	*buf = appendProgram((*buf)[:0], p)
	n := CountLOC(*buf)
	printScratch.Put(buf)
	return n
}

// printScratch holds the buffers Print and ProgramLOC print into; what
// either returns copies out of it, so nothing a caller keeps aliases it.
var printScratch = sync.Pool{New: func() any { return new([]byte) }}

func appendProgram(dst []byte, p *Program) []byte {
	for i, f := range p.Funcs {
		if i > 0 {
			dst = append(dst, '\n')
		}
		dst = AppendFunc(dst, f)
	}
	return dst
}

// AppendFunc appends f to dst as Print prints it, final newline included.
func AppendFunc(dst []byte, f *FuncDecl) []byte {
	pr := printer{buf: dst}
	pr.fun(f)
	return pr.buf
}

// AppendStmts appends stmts to dst as Print prints them, each line
// indented by indent levels of four spaces.
func AppendStmts(dst []byte, stmts []Stmt, indent int) []byte {
	pr := printer{buf: dst, indent: indent}
	for _, s := range stmts {
		pr.stmt(s)
	}
	return pr.buf
}

// AppendParams appends a parameter list as Print prints one, without its
// parentheses: "const double *a, int n".
func AppendParams(dst []byte, params []*Param) []byte {
	pr := printer{buf: dst}
	pr.params(params)
	return pr.buf
}

// AppendExpr appends e to dst as Print prints it.
func AppendExpr(dst []byte, e Expr) []byte {
	pr := printer{buf: dst}
	pr.expr(e, 0)
	return pr.buf
}

// FormatExpr renders a single expression.
func FormatExpr(e Expr) string {
	var buf [64]byte
	return string(AppendExpr(buf[:0], e))
}

// CountLOC counts the lines of src that strings.TrimSpace leaves something
// of; this backs the paper's Table I "added lines of code" metric. A line
// is blank when every rune of it is unicode.IsSpace, which is what
// TrimSpace removes; a byte of invalid UTF-8 is not space.
func CountLOC[S string | []byte](src S) int {
	n := 0
	blank := true
	for i := 0; i < len(src); {
		r, size := rune(src[i]), 1
		if r >= utf8.RuneSelf {
			var rb [utf8.UTFMax]byte
			r, size = utf8.DecodeRune(rb[:copy(rb[:], src[i:])])
		}
		i += size
		if r == '\n' {
			if !blank {
				n++
			}
			blank = true
		} else if !unicode.IsSpace(r) {
			blank = false
		}
	}
	if !blank {
		n++
	}
	return n
}

// printer appends MiniC source to buf.
type printer struct {
	buf    []byte
	indent int
}

func (pr *printer) ws() {
	for i := 0; i < pr.indent; i++ {
		pr.s("    ")
	}
}

func (pr *printer) nl() { pr.b('\n') }

func (pr *printer) s(text string) { pr.buf = append(pr.buf, text...) }

func (pr *printer) b(c byte) { pr.buf = append(pr.buf, c) }

// typ writes t: "const ", the kind, " *".
func (pr *printer) typ(t Type) {
	if t.Const {
		pr.s("const ")
	}
	pr.s(t.Kind.String())
	if t.Ptr {
		pr.s(" *")
	}
}

// named writes a declared type and name: "int x", but "double *p".
func (pr *printer) named(t Type, name string) {
	pr.typ(t)
	if !t.Ptr {
		pr.b(' ')
	}
	pr.s(name)
}

// pragma writes one "#pragma" line at the current indentation.
func (pr *printer) pragma(text string) {
	pr.ws()
	pr.s("#pragma ")
	pr.s(text)
	pr.nl()
}

func (pr *printer) fun(f *FuncDecl) {
	pr.typ(f.Ret)
	pr.b(' ')
	pr.s(f.Name)
	pr.b('(')
	pr.params(f.Params)
	pr.s(") ")
	pr.block(f.Body)
	pr.nl()
}

// params writes a parameter list without its parentheses.
func (pr *printer) params(params []*Param) {
	for i, p := range params {
		if i > 0 {
			pr.s(", ")
		}
		pr.named(p.Type, p.Name)
	}
}

func (pr *printer) block(b *Block) {
	pr.s("{\n")
	pr.indent++
	for _, s := range b.Stmts {
		pr.stmt(s)
	}
	pr.indent--
	pr.ws()
	pr.s("}")
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
		pr.s(";\n")
	case *ExprStmt:
		pr.ws()
		pr.expr(v.X, 0)
		pr.s(";\n")
	case *ForStmt:
		for _, pg := range v.Pragmas {
			pr.pragma(pg)
		}
		pr.ws()
		pr.s("for (")
		switch init := v.Init.(type) {
		case nil:
		case *DeclStmt:
			pr.declNoSemi(init)
		case *ExprStmt:
			pr.expr(init.X, 0)
		}
		pr.s("; ")
		if v.Cond != nil {
			pr.expr(v.Cond, 0)
		}
		pr.s("; ")
		if v.Post != nil {
			pr.expr(v.Post, 0)
		}
		pr.s(") ")
		pr.block(v.Body)
		pr.nl()
	case *WhileStmt:
		for _, pg := range v.Pragmas {
			pr.pragma(pg)
		}
		pr.ws()
		pr.s("while (")
		pr.expr(v.Cond, 0)
		pr.s(") ")
		pr.block(v.Body)
		pr.nl()
	case *IfStmt:
		pr.ws()
		pr.ifChain(v)
		pr.nl()
	case *ReturnStmt:
		pr.ws()
		if v.X != nil {
			pr.s("return ")
			pr.expr(v.X, 0)
			pr.s(";\n")
		} else {
			pr.s("return;\n")
		}
	case *BreakStmt:
		pr.ws()
		pr.s("break;\n")
	case *ContinueStmt:
		pr.ws()
		pr.s("continue;\n")
	case *PragmaStmt:
		pr.pragma(v.Text)
	default:
		panic("minic: printer: unhandled statement " + reflect.TypeOf(s).String())
	}
}

func (pr *printer) ifChain(v *IfStmt) {
	pr.s("if (")
	pr.expr(v.Cond, 0)
	pr.s(") ")
	pr.block(v.Then)
	switch e := v.Else.(type) {
	case nil:
	case *IfStmt:
		pr.s(" else ")
		pr.ifChain(e)
	case *Block:
		pr.s(" else ")
		pr.block(e)
	}
}

func (pr *printer) declNoSemi(d *DeclStmt) {
	pr.named(d.Type, d.Name)
	if d.ArrayLen != nil {
		pr.s("[")
		pr.expr(d.ArrayLen, 0)
		pr.s("]")
	}
	if d.Init != nil {
		pr.s(" = ")
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
		pr.s(v.Name)
	case *IntLit:
		if v.Text != "" {
			pr.s(v.Text)
		} else {
			pr.buf = strconv.AppendInt(pr.buf, v.Val, 10)
		}
	case *FloatLit:
		pr.float(v)
	case *BoolLit:
		if v.Val {
			pr.s("true")
		} else {
			pr.s("false")
		}
	case *StringLit:
		pr.buf = strconv.AppendQuote(pr.buf, v.Val)
	case *UnaryExpr:
		if outer > 7 {
			pr.s("(")
		}
		if v.Op == TokMinus {
			pr.s("-")
			// Avoid "--" when the operand is itself a unary minus.
			if inner, ok := v.X.(*UnaryExpr); ok && inner.Op == TokMinus {
				pr.s(" ")
			}
		} else {
			pr.s("!")
		}
		pr.expr(v.X, 7)
		if outer > 7 {
			pr.s(")")
		}
	case *BinaryExpr:
		p := prec(v.Op)
		if p < outer {
			pr.s("(")
		}
		pr.expr(v.L, p)
		pr.op(v.Op)
		pr.expr(v.R, p+1) // left-assoc: right operand needs higher power
		if p < outer {
			pr.s(")")
		}
	case *AssignExpr:
		if outer > 0 {
			pr.s("(")
		}
		pr.expr(v.LHS, 8)
		pr.op(v.Op)
		pr.expr(v.RHS, 0)
		if outer > 0 {
			pr.s(")")
		}
	case *IncDecExpr:
		pr.expr(v.X, 8)
		pr.s(v.Op.String())
	case *IndexExpr:
		pr.expr(v.Base, 8)
		pr.s("[")
		pr.expr(v.Index, 0)
		pr.s("]")
	case *CallExpr:
		pr.s(v.Fun)
		pr.s("(")
		for i, a := range v.Args {
			if i > 0 {
				pr.s(", ")
			}
			pr.expr(a, 0)
		}
		pr.s(")")
	case *CastExpr:
		if outer > 7 {
			pr.s("(")
		}
		pr.b('(')
		pr.typ(v.To)
		pr.b(')')
		pr.expr(v.X, 7)
		if outer > 7 {
			pr.s(")")
		}
	default:
		panic("minic: printer: unhandled expression " + reflect.TypeOf(e).String())
	}
}

// op writes a binary or assignment operator between its operands.
func (pr *printer) op(op TokKind) {
	pr.b(' ')
	pr.s(op.String())
	pr.b(' ')
}

// float writes a float literal, preserving the original spelling when
// available and consistent with the Single flag.
func (pr *printer) float(v *FloatLit) {
	text := v.Text
	if text != "" {
		hasSuffix := strings.HasSuffix(text, "f") || strings.HasSuffix(text, "F")
		switch {
		case hasSuffix == v.Single:
			pr.s(text)
		case v.Single:
			pr.s(text)
			pr.b('f')
		default:
			pr.s(strings.TrimRight(text, "fF"))
		}
		return
	}
	start := len(pr.buf)
	pr.buf = strconv.AppendFloat(pr.buf, v.Val, 'g', -1, 64)
	if !bytes.ContainsAny(pr.buf[start:], ".eE") {
		pr.s(".0")
	}
	if v.Single {
		pr.b('f')
	}
}
