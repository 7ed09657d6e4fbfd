package telemetry

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCounterNamesDeclaredOnce parses every Go file of the repository and
// requires that no two exported Counter* string constants, in whatever
// package, share a value: a counter name spelled in two places is two
// names the day one of them is edited.
func TestCounterNamesDeclaredOnce(t *testing.T) {
	root := filepath.Join("..", "..")
	declared := map[string]string{} // value → where
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Counter") || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					val, _ := strconv.Unquote(lit.Value)
					here := f.Name.Name + "." + name.Name + " (" + fset.Position(name.Pos()).String() + ")"
					if prev, dup := declared[val]; dup {
						t.Errorf("counter name %q is declared twice: %s and %s", val, prev, here)
					}
					declared[val] = here
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) < 50 || declared[CounterInterpRuns] == "" {
		t.Fatalf("found only %d Counter* constants under %s: the walk is not seeing the tree", len(declared), root)
	}
}
