package fbmpk

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

// liveWithoutCaller holds product code no non-test file names, with why it stays.
var liveWithoutCaller = map[string]string{
	"Plan.StopTrace":        "public API: fbmpk.Plan aliases core.Plan",
	"Plan.SSpMVComplex":     "public API: fbmpk.Plan aliases core.Plan",
	"Plan.UpdateValues":     "public API: fbmpk.Plan aliases core.Plan",
	"Registry.UpdateValues": "public API: fbmpk.Registry aliases registry.Registry",
	"newCondBarrier":        "the baseline of the barrier microbenchmark",
}

// TestNoTestOnlyProductCode fails on a function, method, or package-level
// var or const declared in a non-test file under internal/ or cmd/ that
// no non-test file of the module references: code only tests use.
// Package-level names are matched by package: a selector x.Name, x one
// of the file's imports, uses that package's Name, and a bare Name the
// declaring package's own, so a dead check.Split is not hidden by a live
// sparse.Split. Methods are matched by name: a dead method that shares
// its name with any identifier of the module is not caught. Exempt are
// main, init, the blank identifier, liveWithoutCaller, and methods an
// interface may call: one declared in the module or one of the standard
// library's (fmt.Stringer, error, sort.Interface, http.Handler,
// json.Marshaler, io.Writer, ...).
func TestNoTestOnlyProductCode(t *testing.T) {
	named := map[string]bool{} // every identifier a non-test file uses: what a method matches
	used := map[string]bool{}  // "dir.Name": the package-level names in use
	for _, m := range strings.Fields(`String GoString Format Error Unwrap Is Len Less Swap ServeHTTP
		MarshalJSON UnmarshalJSON MarshalText UnmarshalText Read Write Close Header WriteHeader Flush`) {
		named["."+m] = true
	}
	var decls []string // "pos: dir key"
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
		dir := filepath.ToSlash(filepath.Dir(path))
		checked := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
		imports := map[string]string{} // local name -> directory in the module (else the import path)
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = strings.TrimPrefix(p, "fbmpk/")
		}
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
				decls = append(decls, fset.Position(dc.Pos()).String()+": "+dir+" "+key)
			case *ast.GenDecl:
				if dc.Tok != token.VAR && dc.Tok != token.CONST {
					continue
				}
				for _, spec := range dc.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						declared[id] = true
						if checked && id.Name != "_" {
							decls = append(decls, fset.Position(id.Pos()).String()+": "+dir+" "+id.Name)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imports[x.Name]; ok {
						used[pkg+"."+n.Sel.Name] = true
						return false
					}
				}
			case *ast.Ident:
				if !declared[n] {
					named[n.Name] = true
					used[dir+"."+n.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						named["."+id.Name] = true
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
		dir, key, _ := strings.Cut(d[strings.LastIndex(d, ": ")+2:], " ")
		name := key[strings.LastIndex(key, ".")+1:]
		live := used[dir+"."+name] || key == "main" || key == "init"
		if name != key {
			live = named[name] || named["."+name]
		}
		if !live && liveWithoutCaller[key] == "" {
			t.Errorf("only tests use %s", d)
		}
	}
}
