// Command dispatch writes internal/interp/testdata/dispatch.golden, the
// exact dispatch counts of the VM, or with -check compares them with it.
// scripts/dispatch.sh runs it from the repository root.
//
// For each bundled application it runs TestDispatchCounts/<app> (one VM
// run on the application's bundled workload) in a process of its own under
// `go test -covermode=count`, and reads from the profile how many times
// each clause of (*machine).dispatch ran. The clauses are found in
// bytecode_exec.go with go/ast, by shape and never by line number, so the
// fixture survives edits that move code. Nothing in the dispatch loop
// counts: the counters are the coverage tool's.
//
// Per application the fixture gives:
//
//   - total: dispatches (the loop body's entries);
//   - misses: specialised instructions that ran their generic arm instead
//     (the `miss:` label);
//   - one `clause` line per case clause of the opcode switch (a generic
//     clause's count includes the misses sent to it), followed by the
//     clauses of every `switch op` and `switch tok` nested in it, each
//     call of m.applyBinary in it, and, for a specialised clause, its
//     `goto miss` count.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"psaflow/internal/bench"
)

const (
	source = "internal/interp/bytecode_exec.go"
	golden = "internal/interp/testdata/dispatch.golden"
)

const header = `# Exact dispatch counts of the bytecode VM, (*machine).dispatch in
# bytecode_exec.go: one VM run of each bundled application on its bundled
# workload (TestDispatchCounts). Written by scripts/dispatch.sh from
# go test -covermode=count profiles and checked by scripts/dispatch.sh -check;
# what each line counts is in scripts/dispatch/main.go.
`

func main() {
	check := flag.Bool("check", false, "compare with the fixture instead of writing it")
	flag.Parse()
	out, err := fixture()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dispatch:", err)
		os.Exit(1)
	}
	if !*check {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dispatch:", err)
			os.Exit(1)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dispatch:", err)
		os.Exit(1)
	}
	if !bytes.Equal(out, want) {
		fmt.Fprintf(os.Stderr, "dispatch: counts differ from %s (regenerate with scripts/dispatch.sh):\n", golden)
		diffLines(os.Stderr, want, out)
		os.Exit(1)
	}
}

// fixture profiles every application and renders the fixture.
func fixture() ([]byte, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, source, nil, 0)
	if err != nil {
		return nil, err
	}
	loop, err := findLoop(file)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "dispatch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var out bytes.Buffer
	out.WriteString(header)
	for _, b := range bench.All() {
		prof := filepath.Join(tmp, b.Name+".out")
		cmd := exec.Command("go", "test", "-count=1", "-covermode=count", "-coverprofile="+prof,
			"-run", "^TestDispatchCounts$/^"+b.Name+"$", "./internal/interp")
		if msg, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("%s: %v\n%s", b.Name, err, msg)
		}
		blocks, err := readProfile(prof, filepath.Base(source))
		if err != nil {
			return nil, err
		}
		w := &writer{fset: fset, blocks: blocks, out: &out}
		fmt.Fprintf(&out, "\napp %s\n", b.Name)
		if err := w.loop(loop); err != nil {
			return nil, fmt.Errorf("%s: %v", b.Name, err)
		}
	}
	return out.Bytes(), nil
}

// dispatchLoop is what the fixture counts in dispatch's source.
type dispatchLoop struct {
	body *ast.BlockStmt   // the for loop's body: one entry per dispatch
	sw   *ast.SwitchStmt  // the opcode switch
	miss *ast.LabeledStmt // the miss label
}

func findLoop(file *ast.File) (*dispatchLoop, error) {
	var fn *ast.FuncDecl
	for _, d := range file.Decls {
		if f, ok := d.(*ast.FuncDecl); ok && f.Name.Name == "dispatch" && f.Recv != nil {
			fn = f
		}
	}
	if fn == nil {
		return nil, fmt.Errorf("%s: no method dispatch", source)
	}
	var l dispatchLoop
	for _, s := range fn.Body.List {
		if f, ok := s.(*ast.ForStmt); ok {
			l.body = f.Body
			break
		}
	}
	if l.body == nil {
		return nil, fmt.Errorf("%s: dispatch has no loop", source)
	}
	for _, s := range l.body.List {
		lab, ok := s.(*ast.LabeledStmt)
		if !ok {
			continue
		}
		if sw, ok := lab.Stmt.(*ast.SwitchStmt); ok && isIdent(sw.Tag, "op") {
			l.sw = sw
		}
		if lab.Label.Name == "miss" {
			l.miss = lab
		}
	}
	if l.sw == nil || l.miss == nil {
		return nil, fmt.Errorf("%s: dispatch's loop has no labelled `switch op` or no miss label", source)
	}
	return &l, nil
}

// block is one coverage block: [start, end) and its count.
type block struct {
	sl, sc, el, ec int
	count          int64
}

// readProfile reads the blocks of the file named base from a count-mode
// profile.
func readProfile(path, base string) ([]block, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var blocks []block
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") {
			if line != "mode: count" {
				return nil, fmt.Errorf("%s: %s, want count", path, line)
			}
			continue
		}
		name, rest, ok := strings.Cut(line, ":")
		if !ok || filepath.Base(name) != base {
			continue
		}
		var b block
		var n int
		if _, err := fmt.Sscanf(rest, "%d.%d,%d.%d %d %d", &b.sl, &b.sc, &b.el, &b.ec, &n, &b.count); err != nil {
			return nil, fmt.Errorf("%s: %q: %v", path, line, err)
		}
		blocks = append(blocks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("%s: no blocks of %s", path, base)
	}
	return blocks, nil
}

type writer struct {
	fset   *token.FileSet
	blocks []block
	out    *bytes.Buffer
	err    error
}

// at is the count of the block that starts at p: a case clause's first
// block starts just after its colon, even when the clause is empty.
func (w *writer) at(p token.Pos) int64 {
	pos := w.fset.Position(p)
	for _, b := range w.blocks {
		if b.sl == pos.Line && b.sc == pos.Column {
			return b.count
		}
	}
	w.fail(p)
	return 0
}

// in is the count of the block that holds p.
func (w *writer) in(p token.Pos) int64 {
	pos := w.fset.Position(p)
	for _, b := range w.blocks {
		after := pos.Line > b.sl || pos.Line == b.sl && pos.Column >= b.sc
		before := pos.Line < b.el || pos.Line == b.el && pos.Column < b.ec
		if after && before {
			return b.count
		}
	}
	w.fail(p)
	return 0
}

func (w *writer) fail(p token.Pos) {
	if w.err == nil {
		w.err = fmt.Errorf("no coverage block at %s", w.fset.Position(p))
	}
}

func (w *writer) loop(l *dispatchLoop) error {
	total := w.at(l.body.Lbrace)
	misses := w.at(l.miss.Stmt.Pos())
	fmt.Fprintf(w.out, "total %d\nmisses %d\n", total, misses)
	var entries, gotos int64
	for _, s := range l.sw.Body.List {
		cc := s.(*ast.CaseClause)
		n := w.at(cc.Colon + 1)
		entries += n
		fmt.Fprintf(w.out, "clause %s %d\n", w.cases(cc), n)
		var clauseMisses int64
		hasMiss := false
		w.walk(cc.Body, "", func(p token.Pos) {
			hasMiss = true
			clauseMisses += w.in(p)
		})
		if hasMiss {
			fmt.Fprintf(w.out, "  goto-miss %d\n", clauseMisses)
		}
		gotos += clauseMisses
	}
	if w.err != nil {
		return w.err
	}
	// Every dispatch enters the switch once, and every miss once more.
	if entries != total+misses || gotos != misses {
		return fmt.Errorf("clause entries %d, goto-miss %d: want %d and %d", entries, gotos, total+misses, misses)
	}
	return nil
}

// walk writes the nested lines of one clause body: guard names the if
// branch a line sits in, and onMiss receives each `goto miss`.
func (w *writer) walk(stmts []ast.Stmt, guard string, onMiss func(token.Pos)) {
	for _, s := range stmts {
		w.stmt(s, guard, onMiss)
	}
}

func (w *writer) stmt(s ast.Stmt, guard string, onMiss func(token.Pos)) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walk(s.List, guard, onMiss)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, guard, onMiss)
	case *ast.BranchStmt:
		if s.Tok == token.GOTO && s.Label.Name == "miss" {
			onMiss(s.Pos())
		}
	case *ast.IfStmt:
		w.calls(s.Init, guard)
		w.calls(s.Cond, guard)
		w.walk(s.Body.List, w.join(guard, "if "+w.text(s.Cond)), onMiss)
		switch e := s.Else.(type) {
		case *ast.IfStmt:
			w.stmt(e, guard, onMiss)
		case *ast.BlockStmt:
			w.walk(e.List, w.join(guard, "else"), onMiss)
		}
	case *ast.SwitchStmt:
		w.calls(s.Init, guard)
		tag := ""
		if isIdent(s.Tag, "op") || isIdent(s.Tag, "tok") {
			tag = s.Tag.(*ast.Ident).Name
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			inner := guard
			if tag != "" {
				fmt.Fprintf(w.out, "  %s %s%s %d\n", tag, w.bracket(guard), w.cases(cc), w.at(cc.Colon+1))
				inner = w.join(guard, tag+" "+w.cases(cc))
			}
			w.walk(cc.Body, inner, onMiss)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			w.walk(c.(*ast.CommClause).Body, guard, onMiss)
		}
	case *ast.ForStmt:
		w.walk(s.Body.List, guard, onMiss)
	default:
		w.calls(s, guard)
	}
}

// calls writes one line for each m.applyBinary call in n.
func (w *writer) calls(n ast.Node, guard string) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "applyBinary" {
			fmt.Fprintf(w.out, "  applyBinary %s%d\n", w.bracket(guard), w.in(call.Pos()))
		}
		return true
	})
}

func (w *writer) cases(cc *ast.CaseClause) string {
	if cc.List == nil {
		return "default"
	}
	parts := make([]string, len(cc.List))
	for i, e := range cc.List {
		parts[i] = strings.TrimPrefix(w.text(e), "minic.")
	}
	return strings.Join(parts, ",")
}

func (w *writer) text(n ast.Node) string {
	var b bytes.Buffer
	printer.Fprint(&b, w.fset, n)
	return strings.Join(strings.Fields(b.String()), " ")
}

func (w *writer) join(guard, g string) string {
	if guard == "" {
		return g
	}
	return guard + " / " + g
}

func (w *writer) bracket(guard string) string {
	if guard == "" {
		return ""
	}
	return "[" + guard + "] "
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// diffLines prints the lines of want and got that differ, by line number.
func diffLines(f *os.File, want, got []byte) {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var a, b string
		if i < len(wl) {
			a = wl[i]
		}
		if i < len(gl) {
			b = gl[i]
		}
		if a != b {
			fmt.Fprintf(f, "line %d:\n- %s\n+ %s\n", i+1, a, b)
		}
	}
}
