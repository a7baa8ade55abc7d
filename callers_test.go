package anubis

import (
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdMethods are the method names the standard library calls through
// interfaces of its own (fmt.Stringer, error, the JSON and text
// marshalers, http.Handler), which no code of this module names.
var stdMethods = map[string]bool{
	"String":        true,
	"Error":         true,
	"MarshalJSON":   true,
	"UnmarshalJSON": true,
	"MarshalText":   true,
	"UnmarshalText": true,
	"ServeHTTP":     true,
}

// callerAllowlist names, as package.Name, package.Type.Method or
// package.Type.Field, the objects under internal/ that may have no use
// in non-test code.
var callerAllowlist = map[string]bool{
	// Test hooks that tests in another package call.
	"nvm.Device.WearOf":        true, // memctrl's TestPagedEquivalenceAGIT and TestPagedEquivalenceASIT
	"nvm.Device.WriteRawData":  true, // memctrl's TestSelectiveReplayVulnerability and TestPageOverflowRejectsForgedBlock
	"cache.Cache.Invalidate":   true, // memctrl's TestSGXFlushReportsCorruptTree
	"figures.QuickRunConfig":   true, // the root package's BenchmarkFig12MeasuredRecovery and BenchmarkAblation*
	"figures.MeasuredRecovery": true, // the root package's BenchmarkFig12MeasuredRecovery

	// The retired epoch pipeline's two recovery phases, always zero.
	// They stay while every recovery_phase_ns object lists all phases
	// and perfbench builds its per-layer metric list from
	// obs.RecPhases and checks it against BENCHMARK.json.
	"obs.RPJournalPassA": true,
	"obs.RPJournalPassB": true,
}

// TestInternalFunctionsHaveCallers fails on any function, method,
// constant, package variable, type or struct field declared under
// internal/ that no non-test Go code of the module (perfbench/
// included) uses: code that only tests reach belongs in the tests. The
// check type-checks every non-test package, importing the standard
// library through importer.Default (compiled export data, no network),
// and resolves each use to the object it denotes, so a dead method that
// shares a live field's or method's name is still reported. A method
// also counts as used when an interface method it implements is used.
// A constant whose value is zero in an iota block is exempt: it is the
// zero value of its type, which code uses without naming it.
func TestInternalFunctionsHaveCallers(t *testing.T) {
	fset, pkgs := checkModule(t)

	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]map[string]bool{} // used interface methods, by interface
	var named []*types.Named
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			obj = origin(obj)
			used[obj] = true
			if f, ok := obj.(*types.Func); ok {
				if recv := f.Type().(*types.Signature).Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						if ifaces[it] == nil {
							ifaces[it] = map[string]bool{}
						}
						ifaces[it][f.Name()] = true
					}
				}
			}
		}
		// A selection through embedded fields uses each of them.
		for _, sel := range p.info.Selections {
			typ := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					break
				}
				used[st.Field(i).Origin()] = true
				typ = st.Field(i).Type()
			}
		}
		// A struct literal without keys sets every field.
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := p.info.Types[lit].Type.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						used[st.Field(i).Origin()] = true
					}
				}
				return true
			})
		}
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
	}
	// A method a type gets from its own or an embedded declaration is
	// used when the type implements an interface whose method is used.
	for it, names := range ifaces {
		for _, n := range named {
			ptr := types.NewPointer(n)
			if !types.Implements(ptr, it) {
				continue
			}
			for name := range names {
				if m, _, _ := types.LookupFieldOrMethod(ptr, true, n.Obj().Pkg(), name); m != nil {
					used[origin(m)] = true
				}
			}
		}
	}

	var dead []string
	declared := 0
	for path, p := range pkgs {
		if !strings.HasPrefix(path, "anubis/internal/") {
			continue
		}
		exempt := iotaZeros(p)
		check := func(obj types.Object, key string) {
			declared++
			if !used[obj] && !exempt[obj] && !callerAllowlist[key] && obj.Name() != "_" {
				dead = append(dead, fset.Position(obj.Pos()).String()+": "+key)
			}
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			check(obj, p.pkg.Name()+"."+name)
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); !stdMethods[m.Name()] {
					check(m, p.pkg.Name()+"."+name+"."+m.Name())
				}
			}
			if st, ok := n.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					check(st.Field(i), p.pkg.Name()+"."+name+"."+st.Field(i).Name())
				}
			}
		}
	}
	if declared == 0 {
		t.Fatal("no declarations found under internal/")
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d declarations under internal/ have no use outside tests; delete them or move them into a test file:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
}

// checkedPackage is one type-checked package: its non-test files and
// what the type checker recorded about them.
type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// checkModule parses and type-checks the non-test files of every package
// in the repository, perfbench/ included (its module path extends this
// one's), keyed by import path.
func checkModule(t *testing.T) (*token.FileSet, map[string]*checkedPackage) {
	t.Helper()
	files := map[string][]string{} // import path → its non-test files
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		path := "anubis"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		for _, name := range bp.GoFiles {
			files[path] = append(files[path], filepath.Join(dir, name))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs := map[string]*checkedPackage{}
	std := importer.Default()
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p := pkgs[path]; p != nil {
			return p.pkg, nil
		}
		if files[path] == nil {
			return std.Import(path)
		}
		p := &checkedPackage{info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, file := range files[path] {
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		var err error
		conf := types.Config{Importer: imp}
		if p.pkg, err = conf.Check(path, fset, p.files, p.info); err != nil {
			return nil, err
		}
		pkgs[path] = p
		return p.pkg, nil
	}
	for path := range files {
		if _, err := imp(path); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	return fset, pkgs
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps a field or method of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// iotaZeros returns the package-level constants of p whose value is zero
// and whose declaration, written or repeated, uses iota.
func iotaZeros(p *checkedPackage) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range p.files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			var values []ast.Expr
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if len(vs.Values) > 0 {
					values = vs.Values
				}
				withIota := false
				for _, v := range values {
					ast.Inspect(v, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
							withIota = true
						}
						return true
					})
				}
				for _, name := range vs.Names {
					if c, ok := p.info.Defs[name].(*types.Const); ok && withIota && constant.Sign(c.Val()) == 0 {
						out[c] = true
					}
				}
			}
		}
	}
	return out
}
