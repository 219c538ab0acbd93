package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// testSupport lists the exported identifiers that only tests reach on
// purpose, each with the reason it lives in a production file. Keep it
// short: anything else only tests call moves into their _test.go files.
var testSupport = map[string]string{
	"repro/internal/analysis/analysistest.Run": "the analyzer test harness; every analyzer package's tests import it",
	"repro/internal/dist.ApproxEqual":          "the approved float-comparison helper the floateq diagnostic names",
	"repro/internal/dist.DefaultTol":           "ApproxEqual's default tolerance, documented beside it",
	"repro/internal/fault.Reset":               "disarms every fault point between the chaos tests of other packages",
}

// TestNoTestOnlyExports fails when a top-level exported func, type, var
// or const of the root module has no reference outside _test.go files
// and its own declaration. References from the nested cmd/ddd-e2e
// module count. The root repro facade is exempt as the documented
// public API, but a facade declaration's references count only when
// a program outside the facade reaches that declaration, directly or
// through other facade declarations: a one-line forward keeps nothing
// alive on its own. Code only tests call belongs in a _test.go file
// next to them; code nobody calls is deleted.
func TestNoTestOnlyExports(t *testing.T) {
	if len(testSupport) > 8 {
		t.Errorf("testSupport holds %d entries; at most 8 may stay", len(testSupport))
	}
	pkgs, err := Load("repro/...")
	if err != nil {
		t.Fatal(err)
	}
	decls := make(map[string]token.Position)
	used := make(map[string]bool)
	forwards := make(map[string][]string) // facade declaration -> what it references
	use := func(p *Package) {
		facade := p.ImportPath == "repro"
		collectUses(p, func(owners []string, key string) {
			if !facade {
				used[key] = true
				return
			}
			for _, o := range owners {
				forwards[o] = append(forwards[o], key)
			}
		})
	}
	for _, p := range pkgs {
		collectExports(p, decls)
		use(p)
	}
	e2e, err := loadIn("../../cmd/ddd-e2e")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range e2e {
		use(p)
	}
	var reached []string
	for key := range used {
		if isFacade(key) {
			reached = append(reached, key)
		}
	}
	for len(reached) > 0 {
		key := reached[len(reached)-1]
		reached = reached[:len(reached)-1]
		for _, ref := range forwards[key] {
			if !used[ref] {
				used[ref] = true
				if isFacade(ref) {
					reached = append(reached, ref)
				}
			}
		}
	}

	var unused []string
	for key := range decls {
		if !used[key] && !isFacade(key) {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if testSupport[key] == "" {
			t.Errorf("%s: %s is exported but only tests reach it; move it into a _test.go file or delete it", decls[key], key)
		}
	}
	for key := range testSupport {
		if _, ok := decls[key]; !ok || used[key] {
			t.Errorf("testSupport entry %s is stale: it is gone or production uses it", key)
		}
	}
}

// loadIn loads every package of the module rooted at dir; go list
// resolves patterns against the working directory.
func loadIn(dir string) ([]*Package, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if err := os.Chdir(dir); err != nil {
		return nil, err
	}
	defer os.Chdir(wd)
	return Load("./...")
}

// objKey names a package-level object as "importpath.Name", the same
// for a declaration and for its uses in other packages, whose objects
// come from export data.
func objKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	switch obj.(type) {
	case *types.Func, *types.TypeName, *types.Var, *types.Const:
		return obj.Pkg().Path() + "." + obj.Name(), true
	}
	return "", false
}

// isFacade reports whether key names a declaration of the root repro
// package; keys of its subpackages start with "repro/".
func isFacade(key string) bool { return strings.HasPrefix(key, "repro.") }

func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// collectExports records every exported package-level object declared
// in a non-test file of p.
func collectExports(p *Package, decls map[string]token.Position) {
	for id, obj := range p.TypesInfo.Defs {
		if !id.IsExported() || isTestFile(p.Fset, id.Pos()) {
			continue
		}
		if key, ok := objKey(obj); ok {
			decls[key] = p.Fset.Position(id.Pos())
		}
	}
}

// collectUses calls use for every package-level object referenced
// from a non-test file of p, outside the object's own declaration,
// with the keys of the package-level objects that declaration
// declares. A type's own declaration includes the methods declared on
// it.
func collectUses(p *Package, use func(owners []string, key string)) {
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			for _, unit := range declUnits(d) {
				var owners []string
				for _, id := range unit.names {
					if key, ok := objKey(p.TypesInfo.Defs[id]); ok {
						owners = append(owners, key)
					}
				}
				if unit.recv != nil {
					if named := receiverNamed(p.TypesInfo.TypeOf(unit.recv)); named != nil {
						if key, ok := objKey(named.Obj()); ok {
							owners = append(owners, key)
						}
					}
				}
				ast.Inspect(unit.node, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if key, ok := objKey(p.TypesInfo.Uses[id]); ok && !slices.Contains(owners, key) {
							use(owners, key)
						}
					}
					return true
				})
			}
		}
	}
}

// declUnit is one declaration: a func, or one spec of a const, var or
// type block, with the names it declares and a method's receiver type.
type declUnit struct {
	node  ast.Node
	names []*ast.Ident
	recv  ast.Expr
}

func declUnits(d ast.Decl) []declUnit {
	switch d := d.(type) {
	case *ast.FuncDecl:
		u := declUnit{node: d, names: []*ast.Ident{d.Name}}
		if d.Recv != nil && len(d.Recv.List) == 1 {
			u.recv = d.Recv.List[0].Type
		}
		return []declUnit{u}
	case *ast.GenDecl:
		var units []declUnit
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				units = append(units, declUnit{node: s, names: []*ast.Ident{s.Name}})
			case *ast.ValueSpec:
				units = append(units, declUnit{node: s, names: s.Names})
			}
		}
		return units
	}
	return nil
}

func receiverNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
