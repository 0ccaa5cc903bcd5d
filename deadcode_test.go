package fbmpk

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// liveWithoutCaller holds product code no non-test file names, with why it stays.
var liveWithoutCaller = map[string]string{
	"Plan.StopTrace":        "public API: fbmpk.Plan aliases core.Plan",
	"Plan.SSpMVComplex":     "public API: fbmpk.Plan aliases core.Plan",
	"Plan.UpdateValues":     "public API: fbmpk.Plan aliases core.Plan",
	"Registry.UpdateValues": "public API: fbmpk.Registry aliases registry.Registry",
	"newCondBarrier":        "the baseline of the barrier microbenchmark",
}

// TestNoTestOnlyProductCode fails on a function, method, or package-level
// var or const declared in a non-test file under internal/ or cmd/ whose
// name no non-test file of the module references: code only tests use.
// Exempt are main, init, the blank identifier,
// liveWithoutCaller, and methods an interface may call: one declared in
// the module or one of the standard library's (fmt.Stringer, error,
// sort.Interface, http.Handler, json.Marshaler, io.Writer, ...). The
// match is by name, so a dead method that shares its name with a live
// function or method anywhere in the module is not caught.
func TestNoTestOnlyProductCode(t *testing.T) {
	called := map[string]bool{"main": true, "init": true}
	for _, m := range strings.Fields(`String GoString Format Error Unwrap Is Len Less Swap ServeHTTP
		MarshalJSON UnmarshalJSON MarshalText UnmarshalText Read Write Close Header WriteHeader Flush`) {
		called["."+m] = true
	}
	var decls []string // "pos: key"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		checked := strings.HasPrefix(slash, "internal/") || strings.HasPrefix(slash, "cmd/")
		declared := map[*ast.Ident]bool{}
		for _, dc := range f.Decls {
			switch dc := dc.(type) {
			case *ast.FuncDecl:
				declared[dc.Name] = true
				if !checked {
					continue
				}
				key := dc.Name.Name
				if dc.Recv != nil {
					recv := dc.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					key = recv.(*ast.Ident).Name + "." + key
				}
				decls = append(decls, fset.Position(dc.Pos()).String()+": "+key)
			case *ast.GenDecl:
				if dc.Tok != token.VAR && dc.Tok != token.CONST {
					continue
				}
				for _, spec := range dc.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						declared[id] = true
						if checked && id.Name != "_" {
							decls = append(decls, fset.Position(id.Pos()).String()+": "+id.Name)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declared[n] {
					called[n.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						called["."+id.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		key := d[strings.LastIndex(d, " ")+1:]
		name := key[strings.LastIndex(key, ".")+1:]
		if !called[name] && !(name != key && called["."+name]) && liveWithoutCaller[key] == "" {
			t.Errorf("only tests use %s", d)
		}
	}
}
