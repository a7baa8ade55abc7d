package anubis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// callerAllowlist names the functions under internal/ that may have no
// caller in non-test code.
var callerAllowlist = map[string]bool{
	// Methods the standard library calls through its interfaces.
	"String":        true,
	"Error":         true,
	"MarshalJSON":   true,
	"UnmarshalJSON": true,
	"MarshalText":   true,
	"UnmarshalText": true,
	"ServeHTTP":     true,

	// Test hooks that tests in another package call.
	"WearOf":           true, // nvm.Device.WearOf: memctrl's TestPagedEquivalenceAGIT and TestPagedEquivalenceASIT
	"WriteRawData":     true, // nvm.Device.WriteRawData: memctrl's TestSelectiveReplayVulnerability and TestPageOverflowRejectsForgedBlock
	"Invalidate":       true, // cache.Cache.Invalidate: memctrl's TestSGXFlushReportsCorruptTree
	"QuickRunConfig":   true, // figures.QuickRunConfig: the root package's BenchmarkFig12MeasuredRecovery and BenchmarkAblation*
	"MeasuredRecovery": true, // figures.MeasuredRecovery: the root package's BenchmarkFig12MeasuredRecovery
}

// TestInternalFunctionsHaveCallers fails on any function or method
// declared under internal/ that no non-test Go code of the module
// (perfbench/ included) names: code that only tests reach belongs in
// the tests. The check parses, it does not type-check. A function
// counts as named by a bare identifier in its own package or by a
// selector on an import of that package; a method by any selector
// whose operand is not an import, or by an interface's method list.
// So a dead method that shares a live method's or field's name goes
// unnoticed, but a live function is never reported.
func TestInternalFunctionsHaveCallers(t *testing.T) {
	type decl struct {
		name, dir, pos string
		method         bool
	}
	var decls []decl
	bare := map[string]map[string]bool{}      // dir → bare identifiers used
	qualified := map[string]map[string]bool{} // import path → selected names
	selected := map[string]bool{}             // selectors on non-import operands, interface methods
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		imports := map[string]string{} // name in this file → import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				declared[fn.Name] = true
				if strings.HasPrefix(dir, "internal/") && fn.Name.Name != "init" {
					decls = append(decls, decl{fn.Name.Name, dir, fset.Position(fn.Pos()).String(), fn.Recv != nil})
				}
			}
		}
		if bare[dir] == nil {
			bare[dir] = map[string]bool{}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// An operand naming an import has no object: a local that
				// shadows the import resolves to its declaration.
				if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] != "" {
					if qualified[imports[x.Name]] == nil {
						qualified[imports[x.Name]] = map[string]bool{}
					}
					qualified[imports[x.Name]][n.Sel.Name] = true
				} else {
					selected[n.Sel.Name] = true
				}
				ast.Inspect(n.X, visit)
				return false // n.Sel is not a bare identifier
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						selected[name.Name] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					bare[dir][n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no functions found under internal/")
	}
	var dead []string
	for _, d := range decls {
		var used bool
		if d.method {
			used = selected[d.name]
		} else {
			used = bare[d.dir][d.name] || qualified["anubis/"+d.dir][d.name]
		}
		if !used && !callerAllowlist[d.name] {
			dead = append(dead, d.pos+": "+d.name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d functions under internal/ have no caller outside tests; delete them or move them into a test file:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
}
